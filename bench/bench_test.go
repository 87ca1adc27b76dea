package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// TestQuickEmitsManifest runs every workload once untraced and once traced at
// the quick sizing and checks the benchmark against BENCHMARK.json: the file
// names exactly the six workloads, every workload emits every end-to-end
// metric, every per-layer metric is emitted by some workload, nothing is
// emitted that the file does not name, and every value is finite.
func TestQuickEmitsManifest(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
		}
		if known[d.Name] {
			t.Errorf("metric %q named twice", d.Name)
		}
		known[d.Name] = true
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest names %d workloads, the benchmark has %d", len(mf.Workloads), len(workloads))
	}

	plain := runOpts{seed: 20170811, repeats: 1, size: quickSize, procs: nproc(), workdir: t.TempDir()}
	traced := plain
	traced.trace, traced.tr = true, newTracer()
	emitted := map[string]bool{}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: manifest %q, benchmark %q", i, mf.Workloads[i].Name, w.name)
		}
		seen := map[metricKey]int{}
		for _, o := range []runOpts{plain, traced} {
			res := measure(w, o)
			for _, p := range res.problems {
				t.Errorf("correctness gate: %s", p)
			}
			if a, f := res.counts(); a < 1 || f != 0 {
				t.Errorf("%s: attempted %d failed %d", w.name, a, f)
			}
			for _, r := range res.rows() {
				if !known[r.metric] {
					t.Errorf("%s emits %q, which BENCHMARK.json does not name", w.name, r.metric)
				}
				if !finite(r.value) {
					t.Errorf("%s %s = %v", w.name, r.metric, r.value)
				}
				emitted[r.metric] = true
				if !r.traced {
					seen[metricKey{r.kind, r.metric}]++
				}
			}
		}
		for _, d := range mf.EndToEnd {
			if seen[metricKey{"e2e", d.Name}] != 1 {
				t.Errorf("%s emits %s %d times in one repeat, want 1", w.name, d.Name, seen[metricKey{"e2e", d.Name}])
			}
		}
	}
	for _, d := range mf.PerLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload emits per-layer metric %s", d.Name)
		}
	}
	if len(traced.tr.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestDriverLine checks the acceptance driver's contract on the cheapest
// workload: exit code 0 and a last line with exactly the four keys, every
// end-to-end metric untraced and every per-layer metric traced, each with its
// unit.
func TestDriverLine(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for trace, defs := range map[string][]metricDef{"0": mf.EndToEnd, "1": mf.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"--workload", "agent_manyflow", "--seed", "7", "--seconds", "1", "--trace", trace,
			"-quick", "-manifest", manifestPath, "-workdir", t.TempDir(),
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s%s", trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if len(got) != 4 {
			t.Errorf("trace %s: result has %d keys, want correct, attempted, failed, metrics", trace, len(got))
		}
		var metrics map[string]jsonMetric
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s: got %+v, want unit %s", trace, d.Name, m, d.Unit)
			}
		}
	}
}

// TestUnfitInputReplaced checks that an input a workload declares unfit is
// dropped and its slot filled by the next sub-seed, the same way on every
// round, and that a workload with more unfit inputs than slots fails.
func TestUnfitInputReplaced(t *testing.T) {
	const seed = 7
	bad := subSeed(seed, 1)
	var ran []int64
	w := workload{name: "fake", inputs: 2, run: func(rc *runCtx, s int64) {
		ran = append(ran, s)
		if s == bad {
			rc.rep.unfit = "declared unfit"
			return
		}
		rc.rep.ops = 1
	}}
	res := measure(w, runOpts{seed: seed, repeats: 4})
	want := []int64{subSeed(seed, 0), bad, subSeed(seed, 3), subSeed(seed, 0), subSeed(seed, 3)}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
	if a, f := res.counts(); len(res.repeats) != 4 || len(res.skipped) != 1 || len(res.problems) != 0 || a != 4 || f != 0 {
		t.Errorf("repeats %d skipped %v problems %v attempted %d failed %d", len(res.repeats), res.skipped, res.problems, a, f)
	}

	w.run = func(rc *runCtx, s int64) { rc.rep.unfit = "always" }
	if res := measure(w, runOpts{seed: seed, repeats: 4}); len(res.problems) != 1 || len(res.skipped) != 3 {
		t.Errorf("all inputs unfit: problems %v skipped %v, want one problem after 3 skips", res.problems, res.skipped)
	}
}

// TestFloor checks that each timed piece counts at the fastest an untraced
// repeat of its input ran it, that inputs are averaged, and that the floor is
// what a summary reports beside the quartiles of the per-repeat readings.
func TestFloor(t *testing.T) {
	rep := func(seed int64, traced bool, setup, cold, extra float64, units ...float64) repeat {
		return repeat{seed: seed, traced: traced, timing: phases{
			setupsS: []float64{setup, 2 * setup}, coldS: cold, extraSteadyS: extra, unitsMS: units, work: 10,
		}}
	}
	got := floor([]repeat{
		rep(1, false, 4, 2, 1, 500, 3000),
		rep(1, false, 6, 1, 3, 2000, 500), // input 1 at its fastest: 0.5 s + 0.5 s + 1 s
		rep(2, false, 2, 3, 0, 4000),
		rep(2, true, 1, 1, 0, 1), // a traced repeat never feeds an end-to-end number
	})
	want := map[string]float64{"setup_s": ((4 + 1) + (2 + 3)) / 2.0, "work_per_s": (10/2.0 + 10/4.0) / 2}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	if len(got) != len(want) || floor(nil) != nil {
		t.Errorf("floor = %v; of no repeats %v", got, floor(nil))
	}

	res := result{workload: "w", floor: got, repeats: []repeat{
		{seed: 1, e2e: map[string]float64{"work_per_s": 1}},
		{seed: 2, e2e: map[string]float64{"work_per_s": 3}},
	}}
	if s := summarizeRows(res.rows(), map[string]string{"work_per_s": "1/s"})[metricKey{"w", "work_per_s"}]; s.value != 3.75 || s.n != 2 {
		t.Errorf("summary %+v, want the floor 3.75 over 2 readings", s)
	}
}

// TestAnalyzeRoundTrip writes a results file and reads it back through the
// analyse step.
func TestAnalyzeRoundTrip(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rows := []row{
		{"agent_manyflow", 0, 5, false, "e2e", "work_per_s", 100},
		{"agent_manyflow", 1, 5, false, "e2e", "work_per_s", 300},
		{"agent_manyflow", 2, 6, false, "e2e", "work_per_s", 500},
		{"agent_manyflow", 3, 6, true, "e2e", "work_per_s", 9999},
	}
	if err := writeCSV(filepath.Join(dir, csvName), rows, mf); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(filepath.Join(dir, csvName))
	if err != nil {
		t.Fatal(err)
	}
	// Traced repeats are left out. A timed value is the median over the
	// repeats; any other is the mean over seeds of the median within a seed.
	for unit, want := range map[string]float64{"1/s": 300, "s": 300, "count": 350} {
		s := summarizeRows(back, map[string]string{"work_per_s": unit})[metricKey{"agent_manyflow", "work_per_s"}]
		if s.value != want || s.n != 3 {
			t.Errorf("unit %s: summary %+v, want value %v over 3 rows", unit, s, want)
		}
	}
	var out bytes.Buffer
	if err := analyzeDir(&out, dir, mf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "work_per_s") {
		t.Errorf("analysis does not print the metric:\n%s", out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
