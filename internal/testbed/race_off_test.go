//go:build !race

package testbed

// raceEnabled reports whether the race detector instruments this build;
// alloc-count assertions are skipped under -race because the detector's
// shadow bookkeeping allocates.
const raceEnabled = false
