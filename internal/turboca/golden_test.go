package turboca_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

var updateGolden = flag.Bool("update", false, "rewrite golden plan files")

// TestGoldenPlan pins whole plans across commits: the byte-identity
// suites compare workers and shards within one run, so a change that
// moves every plan the same way passes them all. For the campus and
// stadium scenarios, on both bands, the full hop schedule is planned at
// Workers 1 and 8 from the backend's own planner input, and every AP's
// assignment, the switch count and the bits of ln NetP are compared
// against testdata/golden_plan.txt. Regenerate deliberately with
// `go test -run GoldenPlan -update`.
func TestGoldenPlan(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(int64) *topo.Scenario
	}{{"campus", topo.Campus}, {"stadium", topo.Stadium}}
	var out strings.Builder
	for _, s := range scenarios {
		sc := s.build(1)
		be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), sc, sim.NewEngine(1))
		for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
			in := be.PlannerInput(band)
			in.Sanitize()
			fmt.Fprintf(&out, "# %s %v aps=%d\n", s.name, band, len(in.APs))
			for _, workers := range []int{1, 8} {
				cfg := turboca.DefaultConfig()
				cfg.Workers = workers
				res := turboca.RunNBO(cfg, in, rand.New(rand.NewSource(7)), []int{2, 1, 0})
				plan := planLines(res.Plan)
				if workers == 1 {
					out.WriteString(plan)
				}
				fmt.Fprintf(&out, "workers=%d rounds=%d switches=%d lognetp=%016x plan_sha256=%x\n",
					workers, res.Rounds, res.Switches, math.Float64bits(res.LogNetP), sha256.Sum256([]byte(plan)))
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden_plan.txt"), out.String())
}

func planLines(p turboca.Plan) string {
	ids := make([]int, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		a := p[id]
		fb := "none"
		if a.Channel.DFS { // a DFS assignment with no fallback prints the zero Channel
			fb = a.Fallback.String()
		}
		fmt.Fprintf(&b, "ap=%d %v fallback=%s\n", id, a.Channel, fb)
	}
	return b.String()
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from the golden (regenerate deliberately with -update); first difference:\n%s",
			path, firstDiff(got, string(want)))
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
