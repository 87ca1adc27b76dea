//go:build !race

package backend

// raceEnabled reports whether the race detector instruments this build;
// alloc-count assertions are skipped under -race because the detector's
// instrumentation moves values to the heap.
const raceEnabled = false
