package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// row is one (workload, repeat, metric) value: the unit of the raw results
// file and of every summary printed, live or by -analyze.
type row struct {
	workload string
	repeat   int
	seed     int64
	traced   bool
	kind     string // "e2e", "layer", "floor" (a timed e2e metric, one per run) or "probe" (a trace.* metric, one per traced run)
	metric   string
	value    float64
}

func (res result) rows() []row {
	var out []row
	for i, rep := range res.repeats {
		for kind, m := range map[string]map[string]float64{"e2e": rep.e2e, "layer": rep.layers} {
			for name, v := range m {
				out = append(out, row{res.workload, i, rep.seed, rep.traced, kind, name, v})
			}
		}
	}
	for name, v := range res.floor {
		out = append(out, row{res.workload, 0, 0, false, "floor", name, v})
	}
	for name, v := range res.probes {
		out = append(out, row{res.workload, 0, 0, true, "probe", name, v})
	}
	return out
}

type metricKey struct{ workload, metric string }

// units maps every metric BENCHMARK.json names to its unit.
func (mf manifest) units() map[string]string {
	units := map[string]string{}
	for _, d := range mf.EndToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range mf.PerLayer {
		units[d.Name] = d.Unit
	}
	return units
}

// summarizeRows groups rows per workload and metric. Rows of traced repeats
// never feed an end-to-end number. A metric with a floor row reports that as
// its value, beside the quartiles and count of its per-repeat readings.
func summarizeRows(rows []row, units map[string]string) map[metricKey]summary {
	type acc struct {
		seeds []int64
		vals  []float64
	}
	by := map[metricKey]*acc{}
	floors := map[metricKey]float64{}
	for _, r := range rows {
		if r.kind == "e2e" && r.traced {
			continue
		}
		k := metricKey{r.workload, r.metric}
		if r.kind == "floor" {
			floors[k] = r.value
			continue
		}
		if by[k] == nil {
			by[k] = &acc{}
		}
		by[k].seeds = append(by[k].seeds, r.seed)
		by[k].vals = append(by[k].vals, r.value)
	}
	out := map[metricKey]summary{}
	for k, a := range by {
		s := summarize(units[k.metric], a.seeds, a.vals)
		if v, ok := floors[k]; ok {
			s.value = v
		}
		out[k] = s
	}
	return out
}

// printTable writes one workload's metrics by name with unit, value,
// quartiles and sample count, in manifest order.
func printTable(w io.Writer, workload string, sums map[metricKey]summary, defs []metricDef) {
	for _, d := range defs {
		s, ok := sums[metricKey{workload, d.Name}]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-42s %14.6g %-8s q1 %-12.6g q3 %-12.6g n %d\n",
			d.Name, s.value, d.Unit, s.q1, s.q3, s.n)
	}
}

func printAll(w io.Writer, rows []row, mf manifest) {
	sums := summarizeRows(rows, mf.units())
	for _, wl := range mf.Workloads {
		fmt.Fprintf(w, "%s\n", wl.Name)
		printTable(w, wl.Name, sums, mf.EndToEnd)
		printTable(w, wl.Name, sums, mf.PerLayer)
	}
}

const csvName = "results.csv"

func writeCSV(path string, rows []row, mf manifest) error {
	units := mf.units()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	_ = w.Write([]string{"workload", "repeat", "seed", "traced", "kind", "metric", "unit", "value"})
	for _, r := range rows {
		_ = w.Write([]string{
			r.workload, strconv.Itoa(r.repeat), strconv.FormatInt(r.seed, 10), strconv.FormatBool(r.traced),
			r.kind, r.metric, units[r.metric], strconv.FormatFloat(r.value, 'g', -1, 64),
		})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readCSV(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rows []row
	for i, rec := range recs {
		if i == 0 {
			continue
		}
		if len(rec) != 8 {
			return nil, fmt.Errorf("%s: line %d has %d fields, want 8", path, i+1, len(rec))
		}
		rep, err1 := strconv.Atoi(rec[1])
		seed, err2 := strconv.ParseInt(rec[2], 10, 64)
		traced, err3 := strconv.ParseBool(rec[3])
		val, err4 := strconv.ParseFloat(rec[7], 64)
		for _, err := range []error{err1, err2, err3, err4} {
			if err != nil {
				return nil, fmt.Errorf("%s: line %d: %w", path, i+1, err)
			}
		}
		rows = append(rows, row{rec[0], rep, seed, traced, rec[4], rec[5], val})
	}
	return rows, nil
}

// analyzeDir is the analyse step: grouped value, quartiles and sample count
// for every metric in a results directory.
func analyzeDir(w io.Writer, dir string, mf manifest) error {
	rows, err := readCSV(filepath.Join(dir, csvName))
	if err != nil {
		return err
	}
	printAll(w, rows, mf)
	return nil
}

// runSet measures every workload once, untraced, then once more traced when
// asked; the traced pass only adds layer rows and never feeds end-to-end
// numbers.
func runSet(progress io.Writer, o runOpts) (rows []row, attempted, failed int, problems []string) {
	passes := []bool{false}
	if o.trace {
		passes = append(passes, true)
	}
	for _, traced := range passes {
		po := o
		po.trace = traced
		for _, w := range workloads {
			fmt.Fprintf(progress, "running %s (trace %v)\n", w.name, traced)
			res := measure(w, po)
			a, f := res.counts()
			attempted, failed = attempted+a, failed+f
			problems = append(problems, res.problems...)
			for _, r := range res.rows() {
				if traced && (r.kind == "e2e" || r.kind == "floor") {
					continue
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, attempted, failed, problems
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fullRun measures the whole set, prints every metric and leaves the raw
// rows, the environment and (traced) the spans in a timestamped directory.
func fullRun(stdout, progress io.Writer, o runOpts, mf manifest, outRoot string) int {
	rows, attempted, failed, problems := runSet(progress, o)
	printAll(stdout, rows, mf)
	fmt.Fprintf(stdout, "ops %d failed_ops %d\n", attempted, failed)

	dir := filepath.Join(outRoot, time.Now().UTC().Format("20060102T150405Z"))
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = writeCSV(filepath.Join(dir, csvName), rows, mf)
	}
	if err == nil {
		env, _ := json.MarshalIndent(map[string]any{
			"commit": gitCommit(), "go": runtime.Version(), "nproc": runtime.NumCPU(),
			"gomaxprocs": o.procs, "seed": o.seed, "seconds": o.seconds, "repeats": o.repeats,
		}, "", "  ")
		err = os.WriteFile(filepath.Join(dir, "env.json"), append(env, '\n'), 0o644)
	}
	if err == nil && o.tr != nil {
		err = o.tr.writeJSON(filepath.Join(dir, "spans.json"))
	}
	if err != nil {
		fmt.Fprintln(stdout, "bench: results:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results in %s\n", dir)
	for _, p := range problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	if len(problems) > 0 {
		return 1
	}
	return 0
}

// selfCheck is the A/A run: the whole set twice, back to back. Every
// end-to-end metric must agree within its bound, and every per-layer metric
// whose unit is "count", "ratio" or "B" — made only of the program's own
// counters, which repeat exactly — must match to the digit.
func selfCheck(stdout io.Writer, o runOpts, mf manifest) int {
	var sums [2]map[metricKey]summary
	bad := 0
	for i := range sums {
		rows, _, _, problems := runSet(io.Discard, o)
		sums[i] = summarizeRows(rows, mf.units())
		for _, p := range problems {
			fmt.Fprintf(stdout, "FAIL set %d: %s\n", i+1, p)
			bad++
		}
	}
	for _, wl := range mf.Workloads {
		fmt.Fprintf(stdout, "%s\n", wl.Name)
		for _, d := range mf.EndToEnd {
			a, b := sums[0][metricKey{wl.Name, d.Name}], sums[1][metricKey{wl.Name, d.Name}]
			worse := ratio(b.value-a.value, a.value)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			if worse > d.Bound || -worse > d.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "  %-16s %-6s A %-12.6g [%-.6g, %-.6g]  B %-12.6g [%-.6g, %-.6g]  shift %+6.2f%% bound %.0f%% %s\n",
				d.Name, d.Unit, a.value, a.q1, a.q3, b.value, b.q1, b.q3, 100*worse, 100*d.Bound, verdict)
		}
		for _, d := range mf.PerLayer {
			if d.Unit != "count" && d.Unit != "ratio" && d.Unit != "B" {
				continue
			}
			a, b := sums[0][metricKey{wl.Name, d.Name}], sums[1][metricKey{wl.Name, d.Name}]
			if a.value != b.value {
				fmt.Fprintf(stdout, "  %-42s A %v B %v DIFFER\n", d.Name, a.value, b.value)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: both sets agree")
	return 0
}
