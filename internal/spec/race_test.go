//go:build race

package spec

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random, so fmt allocates more than it does otherwise.
const raceEnabled = true
