package repro_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestFiguresBenchmarkReportsGoldenNumbers closes the loop between the two
// renderings of a figure: the metrics BenchmarkFigures reports for Fig 1,
// Table 1 and Fig 7, pushed back through each row's format, are the
// measured column of internal/experiments' golden — so the -bench
// front-end and EXPERIMENTS.md cannot disagree about a number.
func TestFiguresBenchmarkReportsGoldenNumbers(t *testing.T) {
	golden, err := os.ReadFile("internal/experiments/testdata/golden_cheap.md")
	if err != nil {
		t.Fatal(err)
	}
	selected, err := experiments.Select("fig1,table1,fig7")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range selected {
		reported := testing.Benchmark(func(b *testing.B) { reportFigure(b, e) }).Extra
		for _, row := range e.Run(session).Rows {
			args := make([]any, len(row.Values))
			for i, v := range row.Values {
				got, ok := reported[v.Name]
				if !ok {
					t.Errorf("%s: benchmark did not report %s", e.ID, v.Name)
				}
				args[i] = got
			}
			line := fmt.Sprintf("| %s | %s | %s |\n", row.Metric, row.Paper, fmt.Sprintf(row.Format, args...))
			if !strings.Contains(string(golden), line) {
				t.Errorf("%s: benchmark metrics render as %q, which the golden does not have", e.ID, line)
			}
		}
	}
}
