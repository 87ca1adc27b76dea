package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("s").Counter("hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Scope("s").Counter("hits") != c {
		t.Fatal("interning returned a different counter for the same name")
	}
	g := r.Scope("s").Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestBucketIndexMonotoneAndInvertible(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, 1<<62 + 99} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = i
		lo := bucketLow(i)
		if lo > v {
			t.Fatalf("bucketLow(%d)=%d exceeds value %d", i, lo, v)
		}
		if i+1 < numBuckets {
			if hi := bucketLow(i + 1); hi <= v {
				t.Fatalf("value %d beyond bucket %d upper bound %d", v, i, hi)
			}
		}
	}
	// Exhaustive small-range check: consecutive values never map backwards.
	last := 0
	for v := int64(0); v < 4096; v++ {
		i := bucketIndex(v)
		if i < last {
			t.Fatalf("index regressed at %d", v)
		}
		last = i
	}
}

func TestHistogramQuantilesExactRegion(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "units")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	if s.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	// Values 1..31 are exact buckets; p50 of 1..100 lands at rank 50 → 50
	// is in the log region, so allow the ~6% bucket resolution.
	if s.P50 < 47 || s.P50 > 53 {
		t.Fatalf("p50 = %d, want ≈50", s.P50)
	}
	if s.P99 < 93 || s.P99 > 104 {
		t.Fatalf("p99 = %d, want ≈99", s.P99)
	}
}

func TestHistogramDeterministicUnderConcurrency(t *testing.T) {
	// The same multiset of observations must yield byte-identical
	// snapshots no matter how recording interleaves.
	values := make([]int64, 5000)
	rng := rand.New(rand.NewSource(1))
	for i := range values {
		values[i] = rng.Int63n(1 << 30)
	}
	snap := func(workers int) HistSnapshot {
		r := NewRegistry()
		h := r.Histogram("h", "")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(values); i += workers {
					h.Observe(values[i])
				}
			}(w)
		}
		wg.Wait()
		return h.Snapshot()
	}
	a, b := snap(1), snap(8)
	if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max || a.Mean != b.Mean ||
		a.P50 != b.P50 || a.P95 != b.P95 || a.P99 != b.P99 {
		t.Fatalf("snapshots diverge:\n%+v\n%+v", a, b)
	}
}

func TestHistogramNegativeClampsToZeroBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "")
	h.Observe(-5)
	h.Observe(10)
	s := h.Snapshot()
	if s.Min != -5 || s.Max != 10 || s.Count != 2 {
		t.Fatalf("min/max/count = %d/%d/%d", s.Min, s.Max, s.Count)
	}
	if s.P50 != 0 {
		t.Fatalf("p50 = %d, want 0 (clamped bucket)", s.P50)
	}
}

func TestHistogramMergeMatchesOneHistogram(t *testing.T) {
	// Merging A into B must read as one histogram that observed both
	// multisets: count, sum, min, max and every quantile.
	rng := rand.New(rand.NewSource(7))
	a, b, both := NewHistogram("B"), NewHistogram("B"), NewHistogram("B")
	for i := 0; i < 3000; i++ {
		v := rng.Int63n(1 << 20)
		if i%3 == 0 {
			v = -rng.Int63n(50) // negatives clamp to bucket 0 but move min
		}
		h := a
		if rng.Intn(2) == 0 {
			h = b
		}
		h.Observe(v)
		both.Observe(v)
	}
	summary := func(h *Histogram) [7]int64 {
		s := h.Snapshot()
		return [7]int64{s.Count, h.sum, s.Min, s.Max, s.P50, s.P95, s.P99}
	}
	want := summary(both)
	b.Merge(a)
	if got := summary(b); got != want {
		t.Fatalf("merged count/sum/min/max/p50/p95/p99 = %v, want %v", got, want)
	}
	b.Merge(NewHistogram("B"))
	if got := summary(b); got != want {
		t.Fatalf("merging an empty histogram moved %v to %v", want, got)
	}
	empty := NewHistogram("B")
	empty.Merge(both)
	if got := summary(empty); got != want {
		t.Fatalf("merge into an empty histogram = %v, want %v", got, want)
	}
}

func TestScopedAndScopes(t *testing.T) {
	r := NewRegistry()
	r.Counter("planner.rounds").Inc()
	r.Counter("backend.polls").Inc()
	r.Gauge("backend.depth").Set(1)
	s := r.Snapshot()
	if got := s.Scopes(); len(got) != 2 || got[0] != "backend" || got[1] != "planner" {
		t.Fatalf("scopes = %v", got)
	}
	sub := s.Scoped("backend")
	if len(sub.Counters) != 1 || len(sub.Gauges) != 1 {
		t.Fatalf("scoped snapshot = %+v", sub)
	}
	if _, ok := sub.Counters["planner.rounds"]; ok {
		t.Fatal("scoped snapshot leaked another scope")
	}
}

func TestWriteTextSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Histogram("c.h", "ms").Observe(5)
	var buf1, buf2 bytes.Buffer
	if _, err := r.Snapshot().WriteText(&buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Snapshot().WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Fatal("text rendering not stable")
	}
	lines := strings.Split(strings.TrimSpace(buf1.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "counter a.one") {
		t.Fatalf("unexpected rendering:\n%s", buf1.String())
	}
}

func TestTracerRingAndNilSafety(t *testing.T) {
	var nilTracer *Tracer
	sp := nilTracer.Begin("x") // must not panic
	sp.End()
	if ev := nilTracer.Events(); ev != nil {
		t.Fatal("nil tracer returned events")
	}

	clock := int64(0)
	tr := NewTracer(3, func() int64 { clock++; return clock })
	for i := 0; i < 5; i++ {
		s := tr.Begin("span")
		s.End()
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("ring kept %d events, want 3", len(ev))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Start < ev[i-1].Start {
			t.Fatal("events not oldest-first")
		}
	}
	if ev[0].Dur() != 1 {
		t.Fatalf("span duration = %d, want 1", ev[0].Dur())
	}
}

func TestRegistryTracerEnableDisable(t *testing.T) {
	r := NewRegistry()
	if r.Tracer() != nil {
		t.Fatal("tracing enabled by default")
	}
	tr := r.EnableTracing(8, nil)
	if r.Tracer() != tr {
		t.Fatal("EnableTracing did not install the tracer")
	}
	s := r.Tracer().Begin("a")
	s.End()
	if len(r.Tracer().Events()) != 1 {
		t.Fatal("span not recorded")
	}
	r.DisableTracing()
	if r.Tracer() != nil {
		t.Fatal("DisableTracing left a tracer")
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("planner.rounds").Add(4)
	r.Histogram("planner.pass_us", "µs").Observe(1000)
	r.EnableTracing(16, nil).Begin("plan").End()

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v", err)
	}
	if snap.Counters["planner.rounds"] != 4 {
		t.Fatalf("served counter = %d", snap.Counters["planner.rounds"])
	}
	if h := snap.Histograms["planner.pass_us"]; h.Count != 1 {
		t.Fatalf("served histogram = %+v", h)
	}
	if txt := get("/metrics.txt?scope=planner"); !strings.Contains(txt, "counter planner.rounds 4") {
		t.Fatalf("text endpoint:\n%s", txt)
	}
	if tr := get("/trace"); !strings.Contains(tr, "plan") {
		t.Fatalf("trace endpoint:\n%s", tr)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatal("pprof index not mounted")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Histogram("x.h", "bytes").Observe(12345)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	h := s.Histograms["x.h"]
	if h.Count != 1 || h.Unit != "bytes" || h.Min != 12345 {
		t.Fatalf("round-tripped histogram = %+v", h)
	}
}
