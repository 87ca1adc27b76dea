package experiments

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_cheap.md from the current runners")

// cheap names the experiments that need neither a deployment A/B nor a
// testbed run: seconds at any size, so tier-1 can pin their bytes.
const cheap = "fig1,fig2,fig3,fig5,table1,fig7"

// quick42 is the one Quick session the expensive tests share.
var quick42 = NewSession(Options{Seed: 42, Quick: true})

func run(t *testing.T, s *Session, only string) []Report {
	t.Helper()
	exps, err := Select(only)
	if err != nil {
		t.Fatal(err)
	}
	var out []Report
	for _, e := range exps {
		out = append(out, e.Run(s))
	}
	return out
}

// TestGoldenCheap pins the cheap figures at seed 42, through the index and
// Markdown, to bytes captured from the pre-index runners — the slice of
// EXPERIMENTS.md that can be regenerated in seconds, so the one runner
// cannot drift silently between full regenerations.
func TestGoldenCheap(t *testing.T) {
	const path = "testdata/golden_cheap.md"
	got := Markdown(run(t, NewSession(Options{Seed: 42}), cheap), false)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("cheap figures drifted from %s (-update rewrites it):\n%s", path, got)
	}
}

// TestIndexHygiene runs every experiment once at Quick on one session
// (-short: only the cheap ones) and checks what the front-ends rely on:
// IDs unique under -only's folding, a title, at least one complete row,
// value names usable as benchmark units, no must-hold row violated — and
// that every DESIGN.md §4 row names an ID the index has.
func TestIndexHygiene(t *testing.T) {
	only := ""
	if testing.Short() {
		only = cheap
	}
	ids := map[string]bool{}
	for _, e := range Index {
		if id := normalize(e.ID); ids[id] || id == "" {
			t.Errorf("ID %q is empty or not unique after normalize", e.ID)
		} else {
			ids[id] = true
		}
		if e.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
	for _, r := range run(t, quick42, only) {
		if len(r.Rows) == 0 {
			t.Errorf("%s has no rows", r.ID)
		}
		if r.Failed {
			t.Errorf("%s failed:\n%s", r.ID, Text([]Report{r}, true))
		}
		names := map[string]bool{}
		for _, row := range r.Rows {
			if row.Metric == "" || row.Measured() == "" || strings.Contains(row.Measured(), "%!") {
				t.Errorf("%s has an incomplete row: %+v -> %q", r.ID, row, row.Measured())
			}
			for _, v := range row.Values {
				if v.Name == "" || names[v.Name] || strings.ContainsAny(v.Name, " \t\n") {
					t.Errorf("%s: value name %q is empty, repeated or has whitespace", r.ID, v.Name)
				}
				names[v.Name] = true
			}
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "## 4. Per-experiment index")
	section, _, _ = strings.Cut(section, "\n## ")
	targets := regexp.MustCompile(`-only ([a-z0-9]+)`).FindAllStringSubmatch(section, -1)
	if len(targets) < len(Index)-1 {
		t.Errorf("DESIGN.md §4 names %d regeneration targets for %d experiments", len(targets), len(Index)-1)
	}
	for _, m := range targets {
		if !ids[m[1]] {
			t.Errorf("DESIGN.md §4 names -only %s, which the index does not have", m[1])
		}
	}
}

// TestFleetExperiments is cmd/experiments -only over the fleet-backed
// figures: only what is named runs, and only the shared run it needs.
func TestFleetExperiments(t *testing.T) {
	s := NewSession(Options{Seed: 7})
	reports := run(t, s, " Fig 1, table1,density")
	if len(reports) != 3 || reports[0].ID != "Fig 1" || reports[1].ID != "Table 1" || reports[2].ID != "Density" {
		t.Fatalf("selection: %+v", reports)
	}
	if s.Runs.Fleet != 1 || s.Runs.AB != 0 || s.Runs.Testbed != 0 {
		t.Fatalf("shared runs performed: %+v, want one fleet and nothing else", s.Runs)
	}
	_, err := Select("fig1,figX")
	if err == nil || !strings.Contains(err.Error(), `"figx"`) || !strings.Contains(err.Error(), "fig16") {
		t.Fatalf("unknown ID: %v", err)
	}
}

func TestFig4Ordering(t *testing.T) {
	r := run(t, NewSession(Options{Seed: 9, Quick: true}), "fig4")[0]
	if len(r.Rows) != 5 {
		t.Fatalf("rows: %+v", r.Rows)
	}
	// The measured string embeds the ordering claim; it must at least
	// mention all four categories.
	for _, ac := range []string{"VO", "VI", "BE", "BK"} {
		if !strings.Contains(r.Rows[0].Measured(), ac) {
			t.Fatalf("latency row missing %s: %q", ac, r.Rows[0].Measured())
		}
	}
}

func TestRenderers(t *testing.T) {
	reports := []Report{{ID: "Fig X", Title: "Test", Notes: "n", Detail: "d1\nd2\n",
		Rows: []Row{{"m", "p", "%.1f of %.0f", []Value{{"a", 1.25}, {"b", 3}}}}}}
	md := Markdown(reports, false)
	if !strings.Contains(md, "## Fig X") || !strings.Contains(md, "| m | p | 1.2 of 3 |") || strings.Contains(md, "d1") {
		t.Fatalf("markdown: %q", md)
	}
	if md := Markdown(reports, true); !strings.Contains(md, "```\nd1\nd2\n```") {
		t.Fatalf("markdown detail: %q", md)
	}
	txt := Text(reports, true)
	if !strings.Contains(txt, "=== Fig X") || !strings.Contains(txt, "note: n") || !strings.Contains(txt, "    d1\n    d2\n") {
		t.Fatalf("text: %q", txt)
	}
}

func TestFig6And7(t *testing.T) {
	for _, r := range run(t, NewSession(Options{Seed: 3, Quick: true}), "fig6,fig7") {
		if len(r.Rows) != 2 {
			t.Fatalf("%s: %+v", r.ID, r)
		}
	}
}

// TestUplinkReportsWhatItMeasures pins the two halves of the Uplink
// contract: the pure-uplink rows read zero forged and suppressed (anything
// else fails the report), and the bidirectional rows show the download
// side's real fast-ACK counts instead of hiding them.
func TestUplinkReportsWhatItMeasures(t *testing.T) {
	r := run(t, quick42, "uplink")[0]
	if r.Failed {
		t.Fatalf("agent active on pure uplink:\n%s", Text([]Report{r}, false))
	}
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Metric, "uplink") {
			continue
		}
		for _, v := range row.Values {
			if strings.HasSuffix(v.Name, "_forged") && v.V == 0 {
				t.Errorf("%s: download direction shows no fast ACKs: %s", row.Metric, row.Measured())
			}
		}
	}
}
