package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/obs"
)

// The traced run records spans from the benchmark's own files, around each
// call into a layer, and adopts the four spans the program already records
// (turboca.run_once, turboca.pass, backend.poll, backend.reconcile) from the
// registry tracer. Spans stay in memory and are written as JSON at exit; the
// trace.* metrics are derived from them as self time.

// spanRec is one completed span. Times are nanoseconds since the tracer
// started. Parent indexes the span file (-1 for a root); Pass is shared by all
// spans of one network-pass (0 outside a pass); Calls > 1 marks a batched
// span whose duration covers that many identical calls.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Calls  int    `json:"calls"`
	Allocs int64  `json:"allocs"`
}

type tracer struct {
	t0    time.Time
	spans []spanRec
	open  []int // stack of in-flight benchmark spans
	pass  int   // current network-pass id
	npass int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is the process's cumulative allocation count; reading it does
// not stop the world, so it is cheap enough to take at both ends of a span.
func heapAllocs() int64 {
	metrics.Read(allocSample)
	return int64(allocSample[0].Value.Uint64())
}

// span runs fn inside a span. A nil tracer (the untraced run) just calls fn,
// so workloads are written once for both runs.
func (t *tracer) span(name string, calls int, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Parent: parent, Pass: t.pass, Calls: calls})
	t.open = append(t.open, id)
	a0 := heapAllocs()
	start := t.now()
	fn()
	end := t.now()
	s := &t.spans[id]
	s.Start, s.End, s.Allocs = start, end, heapAllocs()-a0
	t.open = t.open[:len(t.open)-1]
}

// inPass runs fn as one network-pass: every span recorded inside carries the
// same fresh pass id.
func (t *tracer) inPass(fn func()) {
	if t == nil {
		fn()
		return
	}
	t.npass++
	t.pass = t.npass
	fn()
	t.pass = 0
}

// enable turns on the program's own tracer for reg, stamped with this
// tracer's clock so adopted spans line up with the benchmark's.
func (t *tracer) enable(reg *obs.Registry) {
	if t != nil {
		reg.EnableTracing(1<<17, t.now)
	}
}

// adopt appends the program's spans recorded since enable and gives each the
// innermost span recorded at or after index from that contains it in time
// as parent; the program records no parents of its own. Spans of one name
// never parent each other: the planner runs both bands' turboca.pass
// concurrently, and one may happen to contain the other.
func (t *tracer) adopt(reg *obs.Registry, from int) {
	if t == nil {
		return
	}
	first := len(t.spans)
	for _, ev := range reg.Tracer().Events() {
		t.spans = append(t.spans, spanRec{Name: ev.Name, Start: ev.Start, End: ev.End, Parent: -1, Calls: 1})
	}
	reg.DisableTracing()
	for i := first; i < len(t.spans); i++ {
		s := &t.spans[i]
		for j := from; j < len(t.spans); j++ {
			c := t.spans[j]
			if j == i || c.Name == s.Name || c.Start > s.Start || s.End > c.End {
				continue
			}
			if s.Parent < 0 || c.End-c.Start < t.spans[s.Parent].End-t.spans[s.Parent].Start {
				s.Parent = j
			}
		}
		if s.Parent >= 0 {
			s.Pass = t.spans[s.Parent].Pass
		}
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	selfNS float64 // duration minus the part child spans cover
	durNS  float64
	calls  float64
	allocs float64
}

// byName folds spans[from:] per name. A span's self time is its duration
// minus the union of its direct children's intervals, so children that ran in
// parallel on a worker pool are not subtracted twice.
func (t *tracer) byName(from int) map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	children := map[int][][2]int64{}
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], [2]int64{t.spans[i].Start, t.spans[i].End})
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		lt := out[s.Name]
		lt.durNS += float64(s.End - s.Start)
		lt.selfNS += float64(s.End - s.Start - covered(children[i]))
		lt.calls += float64(s.Calls)
		lt.allocs += float64(s.Allocs)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

func (t *tracer) writeJSON(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
