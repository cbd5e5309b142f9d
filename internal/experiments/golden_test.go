package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePaper = flag.Bool("update", false, "rewrite testdata/paper.golden from the current code")

// paperTables renders every table the tier-1 sweep and E5 probe build, in
// tsbench's order: E1-E4 (E4 at u=0.6, as tsbench prints it), E5, E6-E8.
func paperTables(t *testing.T) string {
	t.Helper()
	s, err := smallSweep()
	if err != nil {
		t.Fatal(err)
	}
	e5, err := smallE5()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range []Table{
		s.E1TotalSpace(), s.E2CurrentSpace(), s.E3Redundancy(), s.E4CostFunction(0.6),
		e5.table,
		s.E6SectorUtilization(), s.E7SplitTimeChoice(), s.E8IndexSplits(),
	} {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestPaperGolden pins the reproduction's tables exactly: every cell of
// E1-E8 at the tier-1 sizes. Every input is seeded and E5's latency is
// simulated device time, so the tables are deterministic; a change that
// moves a cell says so by rewriting the file with
//
//	go test -run TestPaperGolden -update ./internal/experiments
//
// and naming the moved cells.
func TestPaperGolden(t *testing.T) {
	got := paperTables(t)
	path := filepath.Join("testdata", "paper.golden")
	if *updatePaper {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if diff := cellDiff(string(data), got); diff != "" {
		t.Fatalf("paper tables changed (rewrite with -update if intended):\n%s", diff)
	}
}

// cellDiff compares two renderings line by line and names each cell that
// differs with its table's title and its row's label.
func cellDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	title := ""
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(w, "=== ") {
			title = w
		}
		if w == g {
			continue
		}
		wc, gc := cells(w), cells(g)
		if len(wc) != len(gc) || len(wc) == 0 {
			out = append(out, fmt.Sprintf("%s\n  -%s\n  +%s", title, w, g))
			continue
		}
		for j := range wc {
			if wc[j] != gc[j] {
				out = append(out, fmt.Sprintf("%s row %q column %d: %s -> %s", title, wc[0], j, wc[j], gc[j]))
			}
		}
	}
	return strings.Join(out, "\n")
}

// cells splits a rendered row on the two-space column gap; a row label
// may hold single spaces.
func cells(line string) []string {
	var out []string
	for _, c := range strings.Split(line, "  ") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}
