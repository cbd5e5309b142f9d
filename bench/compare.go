package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver uses for run-to-run spread. It needs two values.
func quartiles(values []float64) (q1, q3 float64) {
	data := slices.Clone(values)
	slices.Sort(data)
	ld := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the
// median; 0 when there are too few runs to have one.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	return ratio(q3-q1, median(values))
}

// worsening is by how much b is worse than a, as a share of a, in the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

type verdict int

const (
	verdictOK verdict = iota
	verdictUnresolved
	verdictRegressed
)

func (v verdict) String() string { return [...]string{"ok", "unresolved", "regressed"}[v] }

// judge applies one end-to-end metric's bound to the runs of one
// workload on both sides: regressed when b's median is worse than a's by
// more than the bound (or b failed ops that a did not); unresolved when
// either side's own spread is wider than the bound, so the medians
// cannot tell; ok otherwise.
func judge(d metricDef, a, b []float64) (verdict, string) {
	worse := worsening(d, median(a), median(b))
	sa, sb := spread(a), spread(b)
	switch {
	case max(sa, sb) > d.Bound:
		return verdictUnresolved, fmt.Sprintf("%s spread %.1f%%/%.1f%% > bound %.0f%%", d.Name, 100*sa, 100*sb, 100*d.Bound)
	case worse > d.Bound:
		return verdictRegressed, fmt.Sprintf("%s worse by %.1f%% (%.4g -> %.4g %s, bound %.0f%%)", d.Name, 100*worse, median(a), median(b), d.Unit, 100*d.Bound)
	}
	return verdictOK, ""
}

// gatedRuns groups a file's untraced results by workload.
func gatedRuns(rs []result) map[string][]result {
	out := map[string][]result{}
	for _, r := range rs {
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func column(rs []result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.Metrics[metric])
	}
	return v
}

func failedRatio(rs []result) float64 {
	var failed, attempted float64
	for _, r := range rs {
		failed += float64(r.Failed)
		attempted += float64(r.Attempted)
	}
	return ratio(failed, attempted)
}

// compareFiles prints one row per workload — ok, regressed or
// unresolved, with the metrics that decided it — and returns the exit
// code: 1 if any workload regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sides [2][]result
	for i, path := range []string{pathA, pathB} {
		rs, err := loadResults(path)
		if err != nil {
			fmt.Fprintf(w, "bench -compare: %v\n", err)
			return 2
		}
		sides[i] = rs
	}
	return compareResults(w, sides[0], sides[1])
}

func compareResults(w io.Writer, ra, rb []result) int {
	a, b := gatedRuns(ra), gatedRuns(rb)
	code := 0
	for _, wl := range specs {
		runsA, runsB := a[wl.name], b[wl.name]
		if len(runsA) == 0 || len(runsB) == 0 {
			fmt.Fprintf(w, "%-14s missing (runs: %d vs %d)\n", wl.name, len(runsA), len(runsB))
			continue
		}
		if ea, eb := runsA[0].Env, runsB[0].Env; ea.NProc != eb.NProc || ea.Scale != eb.Scale || ea.Clients != eb.Clients || ea.DirFS != eb.DirFS {
			fmt.Fprintf(w, "%-14s warning: environments differ (nproc %d/%d, scale %g/%g, clients %d/%d, fs %s/%s)\n",
				wl.name, ea.NProc, eb.NProc, ea.Scale, eb.Scale, ea.Clients, eb.Clients, ea.DirFS, eb.DirFS)
		}
		worst := verdictOK
		var why []string
		if fa, fb := failedRatio(runsA), failedRatio(runsB); fb > fa {
			worst = verdictRegressed // any increase in failed ops fails
			why = append(why, fmt.Sprintf("failed_ops_ratio %.2g -> %.2g", fa, fb))
		}
		for _, d := range endToEnd {
			v, reason := judge(d, column(runsA, d.Name), column(runsB, d.Name))
			if v != verdictOK {
				why = append(why, reason)
			}
			worst = max(worst, v)
		}
		if worst == verdictRegressed {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-10s runs %d vs %d  %s\n", wl.name, worst, len(runsA), len(runsB), strings.Join(why, "; "))
	}
	return code
}
