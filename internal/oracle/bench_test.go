package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/turboca"
)

// BenchmarkOracleSolve times exact solves at the three campaign sizes on
// the grid family (the campus floor-plan shape — dense enough to make the
// search work, sparse enough to finish), reporting nodes expanded per
// solve next to the latency.
func BenchmarkOracleSolve(b *testing.B) {
	for _, aps := range []int{6, 9, 12} {
		var cfgs []turboca.Config
		var ins []turboca.Input
		const variants = 8
		for seed := int64(0); seed < variants; seed++ {
			cfg, in := Scenario(Grid, aps, rand.New(rand.NewSource(seed)))
			cfgs = append(cfgs, cfg)
			ins = append(ins, in)
		}
		b.Run(fmt.Sprintf("aps=%d", aps), func(b *testing.B) {
			var nodes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % variants
				res := Solve(cfgs[k], ins[k], Options{})
				nodes += int64(res.Nodes)
			}
			b.StopTimer()
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
