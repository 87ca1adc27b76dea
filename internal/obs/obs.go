// Package obs is the repository's unified observability layer: named
// metrics (atomic counters and gauges, log-bucketed histograms with
// deterministic snapshots) plus a fixed-size ring-buffer event tracer with
// a pluggable clock, so spans can be stamped in wall time or in simulated
// time.
//
// The paper's methodology is measurement-first (§3 fleet study, §5.6
// FastACK evaluation); this package is the in-process counterpart. The
// control plane — the NBO planner, the polling/push backend, the fleet
// controller — records into the Registry its run was given; a counter
// increment is a single atomic add, a histogram observation two atomic
// adds, a bucket add and two bounded CAS loops, and a disabled tracer a nil
// check. The FastACK data plane counts into state its agent owns and a run
// folds that into its registry once, at run end (Histogram.Merge).
//
// There is no process-wide registry: every command, session, backend and
// test creates its own with NewRegistry, so two runs in one process report
// apart. Export paths (Snapshot, WriteText, JSON, the HTTP handler in
// http.go) are shared by every consumer so there is exactly one way metrics
// leave the process.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Registry interns metrics by full name. Interning is idempotent: asking
// for the same (kind, name) twice returns the same metric, so package
// initialisers and per-call lookups can coexist.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	tracer atomic.Pointer[Tracer]
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Scope returns a named scope of the registry; metrics created through it
// are registered as "name.metric".
func (r *Registry) Scope(name string) *Scope { return &Scope{r: r, prefix: name} }

// Counter interns a counter under its full dotted name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge interns a gauge under its full dotted name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram interns a histogram under its full dotted name. The unit is
// display-only metadata ("µs", "bytes", "frames"); the first caller's unit
// wins.
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(unit)
	r.hists[name] = h
	return h
}

// EnableTracing installs a ring-buffer tracer of the given capacity whose
// spans are stamped by clock (wall nanoseconds, sim microseconds — the
// caller chooses). It replaces any previous tracer and returns the new
// one.
func (r *Registry) EnableTracing(capacity int, clock func() int64) *Tracer {
	t := NewTracer(capacity, clock)
	r.tracer.Store(t)
	return t
}

// DisableTracing removes the tracer; subsequent Tracer() calls return nil
// and spans become no-ops.
func (r *Registry) DisableTracing() { r.tracer.Store(nil) }

// Tracer returns the installed tracer, or nil when tracing is disabled.
// All Tracer methods are nil-safe, so callers write
// reg.Tracer().Begin("x") unconditionally.
func (r *Registry) Tracer() *Tracer { return r.tracer.Load() }

// names returns the sorted full names of one metric kind.
func sortedKeys[M any](m map[string]M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Scope is a named prefix within a registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Name returns the scope's prefix.
func (s *Scope) Name() string { return s.prefix }

// Registry returns the owning registry.
func (s *Scope) Registry() *Registry { return s.r }

// Scope returns a nested scope ("parent.child").
func (s *Scope) Scope(name string) *Scope {
	return &Scope{r: s.r, prefix: s.prefix + "." + name}
}

// Counter interns "scope.name".
func (s *Scope) Counter(name string) *Counter { return s.r.Counter(s.prefix + "." + name) }

// Gauge interns "scope.name".
func (s *Scope) Gauge(name string) *Gauge { return s.r.Gauge(s.prefix + "." + name) }

// Histogram interns "scope.name".
func (s *Scope) Histogram(name, unit string) *Histogram {
	return s.r.Histogram(s.prefix+"."+name, unit)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Add adds n (n may be any sign, but counters are conventionally
// monotonic; use a Gauge for values that move both ways).
func (c *Counter) Add(n int64) { atomic.AddInt64(&c.v, n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is an instantaneous atomic value.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { atomic.StoreInt64(&g.v, v) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { atomic.AddInt64(&g.v, n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }
