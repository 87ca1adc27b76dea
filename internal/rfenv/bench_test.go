package rfenv_test

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkRFEnv times the hostile-RF hot paths: trace-occupancy sampling
// (on every planner input build, 25 channels per poll) and full storm
// recovery (strike → quarantine → fallback → expiry → re-converge) on an
// office deployment.
func BenchmarkRFEnv(b *testing.B) {
	b.Run("trace-sampling", func(b *testing.B) {
		ts := rfenv.NewTraceSet(1, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions())
		chans := ts.Channels()
		// Pre-walk a week so steady-state sampling, not lazy extension,
		// dominates the measurement.
		for _, ch := range chans {
			ts.Occupancy(ch, 7*sim.Day)
		}
		var sink float64
		samples := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := sim.Time(i%10080) * sim.Minute // wrap inside the walked week
			for _, ch := range chans {
				sink += ts.Occupancy(ch, at)
				samples++
			}
		}
		b.StopTimer()
		if sink < 0 {
			b.Fatal("impossible occupancy")
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(samples)/secs, "samples/s")
		}
	})

	b.Run("storm-recovery", func(b *testing.B) {
		var passes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := topo.Office(int64(11 + i))
			engine := sim.NewEngine(1)
			opt := backend.DefaultOptions(backend.AlgTurboCA)
			traces := rfenv.NewTraceSet(1, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions())
			opt.RF = rfenv.NewEnv(traces, []rfenv.Storm{{At: 3 * sim.Hour, LowSub: 52, HighSub: 64}})
			be := backend.New(opt, sc, engine)
			be.Start()
			// Night planning admits DFS; the storm lands at 3h and its NOP
			// expires at 3h30. Recovery = planner passes between the strike
			// and the first post-expiry instant where intent and on-air
			// channels agree again.
			engine.RunUntil(3 * sim.Hour)
			preRuns := be.Service.RunsTotal
			at := engine.Now()
			rounds := 0
			for {
				at += backend.ReconcileInterval
				engine.RunUntil(at)
				if at > 3*sim.Hour+30*sim.Minute && be.Converged() && be.Service.RunsTotal > preRuns {
					break
				}
				if rounds++; rounds > 64 {
					b.Fatal("storm recovery never converged")
				}
			}
			passes = be.Service.RunsTotal - preRuns
		}
		b.StopTimer()
		b.ReportMetric(float64(passes), "recovery-passes")
	})
}
