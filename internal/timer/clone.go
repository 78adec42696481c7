package timer

// CopyFrom overwrites t with a copy of src whose noise stream continues
// identically from src's position: measuring the same durations in the
// same order on both yields identical readings. t keeps its own
// generator, so the two stay independent.
func (t *TSC) CopyFrom(src *TSC) {
	r := t.r
	*t = *src
	*r = *src.r
	t.r = r
}
