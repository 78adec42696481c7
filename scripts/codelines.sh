#!/usr/bin/env bash
# codelines.sh prints the code size of each Go package under the given
# directories (default: the repository root): the lines of its non-test
# .go files that are neither blank nor only a // comment. The last line
# is the sum over every package listed. CHANGES.md and ROADMAP.md report
# each change's net line delta by this count.
#
#	scripts/codelines.sh internal/attack internal/cpu
#	scripts/codelines.sh internal | tail -1
set -euo pipefail
[ $# -gt 0 ] || set -- .
# Hidden directories (.git, .bench_build) and testdata hold no package.
find "$@" -path '*/.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print | sort | awk '
{
	file = $0
	dir = file
	if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	while ((getline line < file) > 0) {
		sub(/^[ \t]+/, "", line)
		if (line != "" && substr(line, 1, 2) != "//") {
			lines[dir]++
			total++
		}
	}
	close(file)
}
END {
	for (dir in lines) printf "%6d %s\n", lines[dir], dir | "sort -k2"
	close("sort -k2")
	printf "%6d total\n", total
}'
