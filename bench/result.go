package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// timing says how many samples a latency metric rests on, and the
// highest percentile that still has ten samples beyond it (printed,
// never gated).
type timing struct {
	Samples       int     `json:"samples"`
	TopPercentile float64 `json:"top_percentile"`
	TopUS         float64 `json:"top_us"`
}

// result is one workload run: everything measured, plus the environment
// it was measured in. It is what result files hold and -compare reads.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Timings   map[string]timing  `json:"timings"`
	Errors    []string           `json:"errors,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Env       envRecord          `json:"env"`
}

func newResult(cfg runConfig, dataDir string) *result {
	dir := cfg.workDir
	if dataDir != "" {
		dir = filepath.Dir(dataDir)
	}
	return &result{Workload: cfg.workload, Trace: cfg.trace, Metrics: map[string]float64{},
		Timings: map[string]timing{}, Env: newEnv(cfg.seed, cfg.scale, dir)}
}

// contractLine is the last line of standard output the driver reads:
// exactly correct, attempted, failed and metrics — every end-to-end
// metric untraced, every per-layer metric traced. A per-layer metric the
// workload has no source for (wal.* in memory, server.* embedded) reads
// zero.
func (r *result) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!ok && !r.Trace) {
			return nil, fmt.Errorf("metric %s missing or not finite", d.Name)
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// report prints every metric the run produced by name, with its unit,
// direction and (end-to-end) regression bound.
func (r *result) report(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %g  clients %d  trace %v\n", r.Workload, r.Env.Seed, r.Env.Scale, r.Env.Clients, r.Trace)
	fmt.Fprintf(w, "  env: nproc %d  GOMAXPROCS %d  %s  commit %s  fs %s\n", r.Env.NProc, r.Env.GoMaxProcs, r.Env.GoVersion, r.Env.Commit, r.Env.DirFS)
	fmt.Fprintf(w, "  flush policy: %s\n  latency: %s\n", r.Env.FlushPolicy, r.Env.Latency)
	fmt.Fprintf(w, "  correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, d := range endToEnd {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s %s is better, bound %.2f\n", d.Name, v, d.Unit, d.Better, d.Bound)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s %s is better\n", d.Name, v, d.Unit, d.Better)
		}
	}
	kinds := make([]string, 0, len(r.Timings))
	for k := range r.Timings {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t := r.Timings[k]
		fmt.Fprintf(w, "  timing %-8s %8d samples, p%g = %.1f us (highest percentile with 10 samples beyond it; ungated)\n", k, t.Samples, t.TopPercentile, t.TopUS)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

func resultFileName(r *result) string {
	mode := "gated"
	if r.Trace {
		mode = "traced"
	}
	return fmt.Sprintf("result-%s-%s.json", r.Workload, mode)
}

func (r *result) save(dir string) (string, error) {
	path := filepath.Join(dir, resultFileName(r))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadResults reads a result file: one result, or the array -all writes.
func loadResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []result
	if strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		err = json.Unmarshal(data, &many)
	} else {
		many = make([]result, 1)
		err = json.Unmarshal(data, &many[0])
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return many, nil
}
