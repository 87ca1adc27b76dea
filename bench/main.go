// Command bench is the repository's benchmark: six seeded workloads over the
// controller (fleetd, backend, turboca) and the AP data path (sim, mac,
// tcpstack, fastack), measured from outside through public functions and the
// obs registry. BENCHMARK.json at the root of the repository names every
// workload and metric; README.md in this directory says why each exists.
//
// With -workload it is the acceptance driver's entry point: one workload,
// one seed, a time budget, and a last line of JSON. Without, it runs all six,
// prints every metric with quartiles and writes the raw rows to a results
// directory; -selfcheck does that twice and compares, -analyze re-reads a
// results directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metricDef is one end_to_end or per_layer entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json. The benchmark reads metric names and units
// from it instead of repeating them, so the file stays the one list.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one workload and end with one line of JSON (default: all six)")
		seed      = fs.Int64("seed", 20170811, "workload seed; the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 0, "keep starting repeats for this long (default: run_seconds of the manifest)")
		trace     = fs.Int("trace", 0, "1: trace alternate repeats, probe the layers and report per-layer metrics")
		repeats   = fs.Int("repeats", 0, "fixed number of repeats per workload instead of -seconds")
		quick     = fs.Bool("quick", false, "small sizing: every workload and layer in a few seconds")
		selfcheck = fs.Bool("selfcheck", false, "run the whole set twice and compare the two against the bounds")
		analyze   = fs.String("analyze", "", "summarize the results.csv in this directory and exit")
		mpath     = fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
		workdir   = fs.String("workdir", ".bench_build", "directory for the durable workload's stores")
		outRoot   = fs.String("out", "bench/results", "directory under which a full run writes <timestamp>/")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mf, err := loadManifest(*mpath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *analyze != "" {
		if err := analyzeDir(stdout, *analyze, mf); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	procs := nproc()
	runtime.GOMAXPROCS(procs)
	o := runOpts{
		seed: *seed, seconds: *seconds, repeats: *repeats, trace: *trace != 0,
		size: fullSize, procs: procs, workdir: *workdir,
	}
	if o.seconds <= 0 {
		o.seconds = float64(mf.RunSeconds)
	}
	if *quick {
		o.size = quickSize
	}
	if o.trace {
		o.tr = newTracer()
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return driverRun(stdout, w, o, mf)
	}
	if *selfcheck {
		return selfCheck(stdout, o, mf)
	}
	return fullRun(stdout, stderr, o, mf, *outRoot)
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload and prints the result line: every
// end_to_end metric untraced, every per_layer metric traced. A layer the
// workload does not run reports 0.
func driverRun(stdout io.Writer, w workload, o runOpts, mf manifest) int {
	res := measure(w, o)
	defs := mf.EndToEnd
	if o.trace {
		defs = mf.PerLayer
		if err := o.tr.writeJSON(filepath.Join(o.workdir, "spans-"+w.name+".json")); err != nil {
			fmt.Fprintln(stdout, "bench: spans:", err)
			return 1
		}
	}
	sums := summarizeRows(res.rows(), mf.units())
	fmt.Fprintf(stdout, "%s seed %d: %d repeats\n", w.name, o.seed, len(res.repeats))
	printTable(stdout, w.name, sums, defs)
	for _, s := range res.skipped {
		fmt.Fprintf(stdout, "  skipped %s\n", s)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "  FAIL %s\n", p)
	}

	attempted, failed := res.counts()
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.problems) == 0, attempted, failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v := sums[metricKey{w.name, d.Name}].value
		if !finite(v) {
			v, out.Correct = 0, false
		}
		out.Metrics[d.Name] = jsonMetric{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stdout, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
