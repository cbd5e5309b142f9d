package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// smallParams keeps experiment tests fast.
var smallParams = Params{Ops: 3000, ValueSize: 24, Seed: 1}

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames {
		if _, ok := PolicyByName(name); !ok {
			t.Errorf("policy %q unknown", name)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Error("unknown policy accepted")
	}
}

func TestRunTSBInvariants(t *testing.T) {
	for _, u := range []float64{0, 0.5, 1} {
		run, err := RunTSB("tsb-lastupdate", u, smallParams)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Tree.CheckInvariants(); err != nil {
			t.Fatalf("u=%.1f: %v", u, err)
		}
		if run.Report.DistinctVersions == 0 {
			t.Fatalf("u=%.1f: no versions recorded", u)
		}
	}
	if _, err := RunTSB("bogus", 0, smallParams); err == nil {
		t.Error("bogus policy should fail")
	}
}

func cell(tab Table, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.Split(tab.Rows[row][col], "|")[0], 64)
	if err != nil {
		panic(err)
	}
	return v
}

func rowByName(tab Table, name string) int {
	for i, r := range tab.Rows {
		if strings.HasPrefix(r[0], name) {
			return i
		}
	}
	return -1
}

func TestSweepShapes(t *testing.T) {
	s, err := RunSweep(smallParams)
	if err != nil {
		t.Fatal(err)
	}

	e1 := s.E1TotalSpace()
	e2 := s.E2CurrentSpace()
	e3 := s.E3Redundancy()
	e6 := s.E6SectorUtilization()

	lastCol := len(UpdateFractions) // column index of u=1.0 (col 0 is the name)

	// E1 shape: at u=1.0 the WOBT uses more total space than every TSB
	// policy, and tsb-keypref is the cheapest versioned store.
	wobtRow := rowByName(e1, "wobt")
	keyprefRow := rowByName(e1, "tsb-keypref")
	for _, name := range PolicyNames {
		if cell(e1, rowByName(e1, name), lastCol) >= cell(e1, wobtRow, lastCol) {
			t.Errorf("E1: %s total space should beat wobt at u=1.0\n%s", name, e1)
		}
	}
	for _, name := range []string{"tsb-now", "tsb-timepref"} {
		if cell(e1, keyprefRow, lastCol) > cell(e1, rowByName(e1, name), lastCol) {
			t.Errorf("E1: tsb-keypref should minimize total space vs %s\n%s", name, e1)
		}
	}

	// E2 shape: at u=1.0 time-preferring policies keep the current
	// database smaller than key-pref.
	if cell(e2, rowByName(e2, "tsb-timepref"), lastCol) >= cell(e2, rowByName(e2, "tsb-keypref"), lastCol) {
		t.Errorf("E2: tsb-timepref current space should beat tsb-keypref at u=1.0\n%s", e2)
	}

	// E3 shape: zero redundancy at u=0 for every TSB policy (insert-only
	// workloads only key split, §3.2). The WOBT is exempt: its splits
	// recopy current versions even for pure insertions — exactly the §5
	// criticism the TSB-tree fixes.
	for i := range e3.Rows {
		if strings.HasPrefix(e3.Rows[i][0], "wobt") {
			if got := cell(e3, i, 1); got == 0 {
				t.Errorf("E3: wobt should copy on insert-only splits\n%s", e3)
			}
			continue
		}
		if got := cell(e3, i, 1); got != 0 {
			t.Errorf("E3: %s has redundancy %v at u=0\n%s", e3.Rows[i][0], got, e3)
		}
	}
	if cell(e3, rowByName(e3, "tsb-lastupdate"), lastCol) > cell(e3, rowByName(e3, "tsb-now"), lastCol) {
		t.Errorf("E3: last-update redundancy should not exceed now\n%s", e3)
	}

	// E6 shape: wherever both migrate (u=1.0), TSB utilization beats
	// WOBT by a wide margin.
	tsbU := cell(e6, rowByName(e6, "tsb-timepref"), lastCol)
	wobtU := cell(e6, rowByName(e6, "wobt"), lastCol)
	if tsbU < 0.85 {
		t.Errorf("E6: tsb utilization %.3f, want near 1.0\n%s", tsbU, e6)
	}
	if wobtU > tsbU/1.5 {
		t.Errorf("E6: wobt utilization %.3f should be far below tsb %.3f\n%s", wobtU, tsbU, e6)
	}

	// E4 shape: at a low CO/CM ratio the minimizer is a time-splitting
	// policy, and the always-time-split policy (maximal redundancy) is
	// never the minimizer at CO/CM = 1. Note: the paper's claim that key
	// splitting always wins total space assumes node-granular accounting
	// on both devices; byte-packed WORM appends give moderate time
	// splitting a packing advantage.
	e4 := s.E4CostFunction(0.6)
	minRow := e4.Rows[len(e4.Rows)-1]
	if minRow[1] == "tsb-keypref" {
		t.Errorf("E4: cheapest-optical minimizer should favor time splitting\n%s", e4)
	}
	if got := minRow[len(minRow)-1]; got == "tsb-timepref" {
		t.Errorf("E4: CO/CM=1 minimizer must not be the maximal-redundancy policy\n%s", e4)
	}

	// E7 shape: last-update migrates no more than now at u=1.0.
	e7 := s.E7SplitTimeChoice()
	nowCell := strings.Split(e7.Rows[rowByName(e7, "tsb-now")][lastCol], "|")
	luCell := strings.Split(e7.Rows[rowByName(e7, "tsb-lastupdate")][lastCol], "|")
	nowMig, _ := strconv.Atoi(nowCell[1])
	luMig, _ := strconv.Atoi(luCell[1])
	if luMig > nowMig {
		t.Errorf("E7: last-update migrated %d > now %d\n%s", luMig, nowMig, e7)
	}

	// E8 renders.
	if out := s.E8IndexSplits().String(); !strings.Contains(out, "idx-key-splits") {
		t.Error("E8 table malformed")
	}
}

func TestE5SearchIO(t *testing.T) {
	results, tab, err := E5SearchIO(Params{Ops: 2000, ValueSize: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]E5Result)
	for _, r := range results {
		byKey[r.Structure+"/"+r.Query] = r
	}
	// Everyone answered current gets; only versioned stores answered
	// temporal queries.
	for _, k := range []string{"tsb/get-current", "wobt/get-current", "b+tree/get-current",
		"tsb/get-asof", "wobt/get-asof", "tsb/snapshot-scan", "wobt/snapshot-scan",
		"tsb/history", "wobt/history"} {
		if _, ok := byKey[k]; !ok {
			t.Fatalf("missing measurement %s\n%s", k, tab)
		}
	}
	if _, ok := byKey["b+tree/get-asof"]; ok {
		t.Error("b+tree cannot answer as-of queries")
	}
	// Current gets on the TSB-tree must not be pricier than on the WOBT:
	// the WOBT pays optical access for everything.
	if byKey["tsb/get-current"].AvgTime > byKey["wobt/get-current"].AvgTime {
		t.Errorf("tsb current gets (%v) should be no slower than wobt (%v)\n%s",
			byKey["tsb/get-current"].AvgTime, byKey["wobt/get-current"].AvgTime, tab)
	}
}

func TestE9ReadOnly(t *testing.T) {
	res, tab, err := E9ReadOnly(3, 3, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotLeaks != 0 {
		t.Errorf("snapshot leaks = %d, want 0\n%s", res.SnapshotLeaks, tab)
	}
	if !res.InvariantsOK {
		t.Error("invariants failed after concurrent run")
	}
	if res.ReaderScans != 60 {
		t.Errorf("reader scans = %d, want 60", res.ReaderScans)
	}
	if res.Commits == 0 {
		t.Error("no commits")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Header:  []string{"a", "bb"},
		Rows:    [][]string{{"xxx", "y"}},
		Remarks: []string{"note"},
	}
	out := tab.String()
	for _, want := range []string{"=== demo ===", "xxx", "-- note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
