package turboca

import (
	"repro/internal/obs"
)

// Planner observability (scope "turboca"). Instrumentation is always on:
// the counters are single atomics and every histogram observation happens
// at pass/level/round granularity — never inside ACC's per-channel loops —
// so a 600-AP pass pays a few dozen atomic ops on top of ~8 ms of planning
// (BenchmarkPlannerPass, one 2.1 GHz core).
//
// Metric inventory:
//
//	turboca.passes           RunNBO invocations
//	turboca.nbo_rounds       NBO rounds evaluated (all hop levels)
//	turboca.rounds_accepted  rounds whose plan beat the incumbent
//	turboca.rounds_rejected  rounds discarded by accept-if-better
//	turboca.switches_planned AP channel changes in accepted plans
//	turboca.pass_us          wall-clock µs per RunNBO invocation
//	turboca.hop_level_us     wall-clock µs per hop level (fan-out + reduce)
//	turboca.netp_round_m     −1000·ln NetP per round (lower is better);
//	                         value histograms are deterministic per seed
//	turboca.netp_best_m      gauge: −1000·ln NetP of the last accepted plan
//
// Timing histograms (_us) depend on the host and are excluded from
// determinism contracts; the NetP histograms record pure planner output
// and snapshot identically for a given seed at any worker count.
type plannerMetrics struct {
	passes         *obs.Counter
	rounds         *obs.Counter
	roundsAccepted *obs.Counter
	roundsRejected *obs.Counter
	switchesDone   *obs.Counter
	passUS         *obs.Histogram
	levelUS        *obs.Histogram
	netpRound      *obs.Histogram
	netpBest       *obs.Gauge
}

func metricsOn(scope *obs.Scope) *plannerMetrics {
	return &plannerMetrics{
		passes:         scope.Counter("passes"),
		rounds:         scope.Counter("nbo_rounds"),
		roundsAccepted: scope.Counter("rounds_accepted"),
		roundsRejected: scope.Counter("rounds_rejected"),
		switchesDone:   scope.Counter("switches_planned"),
		passUS:         scope.Histogram("pass_us", "µs"),
		levelUS:        scope.Histogram("hop_level_us", "µs"),
		netpRound:      scope.Histogram("netp_round_m", "-mlogNetP"),
		netpBest:       scope.Gauge("netp_best_m"),
	}
}

// defaultPlannerMetrics serves every Config with a nil Obs scope.
var defaultPlannerMetrics = metricsOn(obs.Default().Scope("turboca"))

// metrics resolves the metric set for this configuration: the process
// default, or a private scope (tests use one for isolated, deterministic
// snapshots).
func (cfg Config) metrics() *plannerMetrics {
	if cfg.Obs == nil {
		return defaultPlannerMetrics
	}
	return metricsOn(cfg.Obs)
}

// obsRegistry resolves the registry whose tracer instruments this
// configuration.
func (cfg Config) obsRegistry() *obs.Registry {
	if cfg.Obs == nil {
		return obs.Default()
	}
	return cfg.Obs.Registry()
}

// milliNetP scales ln NetP for integer histograms: −1000·score, so lower
// values mean better plans and the result is non-negative (ln NodeP ≤ 0).
func milliNetP(score float64) int64 { return int64(-score * 1000) }
