package turboca

import (
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// BenchmarkPlannerPass times a full i=0 invocation over the ~600-AP chain
// (the paper's UNet scale) with the default worker count.
// BenchmarkRunNBO is the worker-count sweep; this is the single
// configuration.
func BenchmarkPlannerPass(b *testing.B) {
	const aps = 600
	in := chainInput(aps, spectrum.W80, 1.0)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunNBO(cfg, in, rand.New(rand.NewSource(42)), []int{0})
	}
}
