package experiments

import "fmt"

// Sweep holds the space-measurement runs shared by experiments E1-E4 and
// E6-E8: every policy × every update fraction, plus the WOBT baseline at
// every update fraction.
type Sweep struct {
	Params Params
	TSB    map[string]map[float64]*TSBRun // policy -> u -> run
	WOBT   map[float64]*WOBTRun
	BPlusM map[float64]uint64 // u -> magnetic bytes of the B+-tree
}

// RunSweep executes the full measurement matrix of the paper's §5 plan.
func RunSweep(p Params) (*Sweep, error) {
	p = p.withDefaults()
	s := &Sweep{
		Params: p,
		TSB:    make(map[string]map[float64]*TSBRun),
		WOBT:   make(map[float64]*WOBTRun),
		BPlusM: make(map[float64]uint64),
	}
	for _, name := range PolicyNames {
		s.TSB[name] = make(map[float64]*TSBRun)
		for _, u := range UpdateFractions {
			run, err := RunTSB(name, u, p)
			if err != nil {
				return nil, fmt.Errorf("tsb %s u=%.1f: %w", name, u, err)
			}
			s.TSB[name][u] = run
		}
	}
	for _, u := range UpdateFractions {
		run, err := RunWOBT(u, p)
		if err != nil {
			return nil, fmt.Errorf("wobt u=%.1f: %w", u, err)
		}
		s.WOBT[u] = run
		mag, _, err := RunBPlus(u, p)
		if err != nil {
			return nil, fmt.Errorf("bplus u=%.1f: %w", u, err)
		}
		s.BPlusM[u] = mag.Stats().BytesInUse(p.PageSize)
	}
	return s, nil
}

// wobtReport derives space numbers for a WOBT run: everything it stores is
// on the write-once device.
func (s *Sweep) wobtReport(u float64) SpaceReport {
	run := s.WOBT[u]
	st := run.WORM.Stats()
	return SpaceReport{
		MagneticBytes:     0,
		WORMBytes:         st.BytesBurned(s.Params.SectorSize),
		PayloadBytes:      st.PayloadBytes,
		SectorUtilization: st.Utilization(s.Params.SectorSize),
		DistinctVersions:  run.Stats.Inserts,
		RedundantVersions: run.Stats.LeafCopies,
	}
}

// E1TotalSpace is the "total space use" table: SpaceM+SpaceO per policy per
// update fraction, in KiB. Expected shape: key-splitting policies minimize
// total space; the WOBT is the worst at every update fraction because all
// incremental writes burn whole sectors and every split recopies data.
func (s *Sweep) E1TotalSpace() Table {
	t := Table{
		Title:  "E1: total space use (KiB) vs update fraction (paper §5 measurement plan)",
		Header: fracRow("policy \\ u", frac),
	}
	for _, name := range PolicyNames {
		t.Rows = append(t.Rows, fracRow(name, func(u float64) string { return kb(s.TSB[name][u].Report.TotalBytes()) }))
	}
	t.Rows = append(t.Rows,
		fracRow("wobt (§2 baseline)", func(u float64) string { return kb(s.wobtReport(u).TotalBytes()) }),
		fracRow("b+tree (current only)", func(u float64) string { return kb(s.BPlusM[u]) }))
	t.Remarks = append(t.Remarks,
		"b+tree keeps no history: its numbers are the lower bound for current data only",
		"expected: tsb-keypref minimal among versioned stores; wobt worst (whole-sector writes)")
	return t
}

// E2CurrentSpace is the "space use in the current database" table: SpaceM
// in KiB. Expected shape: time-splitting policies keep the current
// database small and roughly flat as the update fraction grows; key-pref
// grows with the version count.
func (s *Sweep) E2CurrentSpace() Table {
	t := Table{
		Title:  "E2: current (magnetic) space use (KiB) vs update fraction",
		Header: fracRow("policy \\ u", frac),
	}
	for _, name := range PolicyNames {
		t.Rows = append(t.Rows, fracRow(name, func(u float64) string { return kb(s.TSB[name][u].Report.MagneticBytes) }))
	}
	t.Rows = append(t.Rows, fracRow("b+tree (current only)", func(u float64) string { return kb(s.BPlusM[u]) }))
	t.Remarks = append(t.Remarks,
		"expected: tsb-timepref smallest and flattest; tsb-keypref grows with total versions")
	return t
}

// E3Redundancy is the "amount of redundancy" table: redundant version
// copies per distinct version. Expected shape: zero at u=0 (insert-only
// workloads only key split, §3.2 boundary condition), growing with u for
// time-splitting policies; last-update splits at most as redundant as
// now splits.
func (s *Sweep) E3Redundancy() Table {
	t := Table{
		Title:  "E3: redundancy (redundant copies per distinct version) vs update fraction",
		Header: fracRow("policy \\ u", frac),
	}
	for _, name := range PolicyNames {
		t.Rows = append(t.Rows, fracRow(name, func(u float64) string { return f3(s.TSB[name][u].Report.RedundancyRatio()) }))
	}
	t.Rows = append(t.Rows, fracRow("wobt (§2 baseline)", func(u float64) string { return f3(s.wobtReport(u).RedundancyRatio()) }))
	t.Remarks = append(t.Remarks,
		"expected: all zero at u=0.0; wobt redundancy high (splits recopy current versions)")
	return t
}

// CostRatios is the CO/CM sweep of E4.
var CostRatios = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0}

// E4CostFunction evaluates CS = SpaceM·CM + SpaceO·CO per policy across
// CO/CM ratios (CM fixed at 1.0/byte), at a mixed update fraction, and
// reports which policy minimizes the cost at each ratio. Expected shape:
// cheap optical storage (low CO/CM) favors time-splitting policies; as
// optical approaches magnetic cost the optimum shifts toward key
// splitting (§3.2).
func (s *Sweep) E4CostFunction(u float64) Table {
	t := Table{
		Title:  fmt.Sprintf("E4: storage cost CS = SpaceM*CM + SpaceO*CO (CM=1, u=%.1f)", u),
		Header: []string{"policy \\ CO/CM"},
	}
	for _, r := range CostRatios {
		t.Header = append(t.Header, fmt.Sprintf("%.2f", r))
	}
	best := make([]string, len(CostRatios))
	bestCost := make([]float64, len(CostRatios))
	for i := range bestCost {
		bestCost[i] = -1
	}
	for _, name := range PolicyNames {
		row := []string{name}
		rep := s.TSB[name][u].Report
		for i, r := range CostRatios {
			c := rep.Cost(1.0, r)
			row = append(row, fmt.Sprintf("%.0f", c/1024))
			if bestCost[i] < 0 || c < bestCost[i] {
				bestCost[i] = c
				best[i] = name
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, append([]string{"minimizer"}, best...))
	t.Remarks = append(t.Remarks,
		"costs in KiB-equivalents; expected: time-pref wins at low CO/CM, key-pref as CO/CM -> 1")
	return t
}

// E6SectorUtilization compares write-once sector utilization: the WOBT's
// incremental one-entry-per-sector writes versus the TSB-tree's
// consolidated appends. This is the paper's headline §1 claim: "we shall
// be able to write data to the optical disk in units which nearly
// approximate the sector size."
func (s *Sweep) E6SectorUtilization() Table {
	t := Table{
		Title:  "E6: WORM sector utilization (payload bytes / burned bytes) vs update fraction",
		Header: fracRow("structure \\ u", frac),
	}
	for _, name := range []string{"tsb-lastupdate", "tsb-timepref"} {
		t.Rows = append(t.Rows, fracRow(name+" (consolidated appends)", func(u float64) string {
			rep := s.TSB[name][u].Report
			if rep.WORMBytes == 0 {
				return "n/a"
			}
			return f3(rep.SectorUtilization)
		}))
	}
	t.Rows = append(t.Rows, fracRow("wobt (incremental sectors)", func(u float64) string { return f3(s.wobtReport(u).SectorUtilization) }))
	t.Remarks = append(t.Remarks,
		"expected: tsb near 1.0 wherever it migrates; wobt far below (one new record per sector)")
	return t
}

// E7SplitTimeChoice isolates §3.3's split-time flexibility: for the three
// time-split choices, the redundancy and migration volume at each update
// fraction. Expected shape: last-update <= median <= now in redundancy,
// with identical current-node content.
func (s *Sweep) E7SplitTimeChoice() Table {
	t := Table{
		Title:  "E7: split-time choice ablation (redundant copies per distinct version | versions migrated)",
		Header: fracRow("choice \\ u", frac),
	}
	for _, name := range []string{"tsb-now", "tsb-median", "tsb-lastupdate"} {
		t.Rows = append(t.Rows, fracRow(name, func(u float64) string {
			rep := s.TSB[name][u]
			return fmt.Sprintf("%s|%d", f3(rep.Report.RedundancyRatio()), rep.Tree.Stats().VersionsMigrated)
		}))
	}
	t.Remarks = append(t.Remarks,
		"expected: pushing the split time back (last-update) lowers both redundancy and migration volume")
	return t
}

// E8IndexSplits reports index-node split behaviour (§3.5): how many index
// time splits were local, how many keyspace splits occurred, rule-4
// duplications, and the Figure-9 pathology counters. Expected shape: most
// index time splits are local; marked leaves are rare and get cleared.
func (s *Sweep) E8IndexSplits() Table {
	t := Table{
		Title:  "E8: index node split behaviour (per policy, u=0.8)",
		Header: []string{"policy", "idx-time-splits(local)", "idx-key-splits", "rule4-dups", "marked-leaves", "forced-time-splits"},
	}
	u := 0.8
	for _, name := range PolicyNames {
		st := s.TSB[name][u].Tree.Stats()
		t.Rows = append(t.Rows, []string{
			name,
			num(st.IndexTimeSplits),
			num(st.IndexKeySplits),
			num(st.RedundantIndexEntries),
			num(st.MarkedLeaves),
			num(st.ForcedTimeSplits),
		})
	}
	t.Remarks = append(t.Remarks,
		"all index time splits in this implementation are local by construction (§3.5);",
		"marked leaves record the Figure-9 pathology, forced splits its resolution")
	return t
}

// fracRow builds one row of a per-update-fraction table: the label, then
// cell(u) for each u of the sweep.
func fracRow(label string, cell func(u float64) string) []string {
	row := []string{label}
	for _, u := range UpdateFractions {
		row = append(row, cell(u))
	}
	return row
}
