package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the durable workload re-execute the test binary as its
// child: with childEnv set, the process is the bench, not the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestSameSeedSameStream(t *testing.T) {
	for _, mx := range []mix{mixOLTP, mixTemporal, mixDurable, mixServed} {
		a := streamHash(7, mx, 2, 10_000, 5_000)
		if b := streamHash(7, mx, 2, 10_000, 5_000); a != b {
			t.Errorf("same seed, different streams: %x vs %x", a, b)
		}
		if c := streamHash(8, mx, 2, 10_000, 5_000); a == c {
			t.Errorf("different seeds, same stream %x", a)
		}
	}
}

func TestHot80Shares(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n, picks = 10_000, 200_000
	hot := 0
	for i := 0; i < picks; i++ {
		k := hot80(r, n)
		if k < 0 || k >= n {
			t.Fatalf("pick %d outside [0,%d)", k, n)
		}
		if k < n/5 {
			hot++
		}
	}
	if share := float64(hot) / picks; math.Abs(share-0.80) > 0.01 {
		t.Errorf("hot set got %.3f of the picks, want 0.80", share)
	}
	for _, clients := range []int{1, 2, 3, 4} {
		for c := 0; c < clients; c++ {
			for i := 0; i < 1000; i++ {
				k := owned(hot80(r, n), c, clients, n)
				if k < 0 || k >= n || k%clients != c {
					t.Fatalf("owned key %d for client %d of %d", k, c, clients)
				}
			}
		}
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, s := range specs {
		sum := 0
		for _, share := range s.mix {
			sum += int(share)
		}
		if sum != 100 || s.mix[s.point] == 0 || s.mix[s.heavy] == 0 {
			t.Errorf("%s: mix sums to %d, point share %d, heavy share %d", s.name, sum, s.mix[s.point], s.mix[s.heavy])
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	var v [valueLen]byte
	fillValue(v[:], 1234, 56)
	if seq, ok := parseValue(v[:], 1234); !ok || seq != 56 {
		t.Errorf("parseValue = %d, %v", seq, ok)
	}
	if _, ok := parseValue(v[:], 1235); ok {
		t.Error("value accepted for the wrong key")
	}
	v[50] ^= 1
	if _, ok := parseValue(v[:], 1234); ok {
		t.Error("corrupted value accepted")
	}
}

func TestPercentiles(t *testing.T) {
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %g", got)
	}
	// Highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 50}, {100, 90}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		s := samples{ns: make([]uint32, c.n)}
		if p, _ := s.topPercentile(); p != c.want {
			t.Errorf("n=%d: top percentile %g, want %g", c.n, p, c.want)
		}
	}
	s := samples{ns: []uint32{4000, 1000, 3000, 2000}}
	if s.p50us() != 2 || s.p99us() != 4 {
		t.Errorf("p50 %g us, p99 %g us; want 2, 4", s.p50us(), s.p99us())
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// op.get [0,100] -> core [10,90] -> buffer [20,40], buffer [50,80] -> device [55,75]
	// op.update [100,300] -> wal [150,250] -> device [160,240]
	get, upd := spanOp+int32(opGet), spanOp+int32(opUpdate)
	spans := []span{
		{name: get, parent: -1, start: 0, end: 100},
		{name: spanCore, parent: 0, start: 10, end: 90},
		{name: spanBuffer, parent: 1, start: 20, end: 40},
		{name: spanBuffer, parent: 1, start: 50, end: 80},
		{name: spanDevice, parent: 3, start: 55, end: 75},
		{name: upd, parent: -1, op: 1, start: 100, end: 300},
		{name: spanWAL, parent: 5, op: 1, start: 150, end: 250},
		{name: spanDevice, parent: 6, op: 1, start: 160, end: 240},
	}
	got := selfTimes(spans)
	want := map[string]int64{"txn": 20 + 100, "core": 30, "buffer": 20 + 10, "device": 20 + 80, "wal": 20}
	var sum int64
	for layer, ns := range want {
		if got[layer] != ns {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], ns)
		}
		sum += got[layer]
	}
	if sum != 300 {
		t.Errorf("self times sum to %d, want the 300 ns the two ops took", sum)
	}
	// The tracer nests by call order and numbers ops.
	tr := newTracer(8)
	tr.start()
	a := tr.begin(get)
	b := tr.begin(spanCore)
	tr.end(b)
	tr.end(a)
	c := tr.begin(upd)
	tr.end(c)
	if tr.spans[1].parent != 0 || tr.spans[2].parent != -1 || tr.spans[1].op != 0 || tr.spans[2].op != 1 {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin(get)) // a nil tracer records nothing and does not crash
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g", q1, q3)
	}
	if s := spread(v); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func fakeRuns(workload string, failed uint64, opsPerS ...float64) []result {
	var rs []result
	for _, v := range opsPerS {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.Name] = 100
		}
		m["ops_per_s"] = v
		rs = append(rs, result{Workload: workload, Attempted: 1000, Failed: failed, Metrics: m})
	}
	return rs
}

func TestCompareVerdicts(t *testing.T) {
	base := fakeRuns("oltp-mem", 0, 1000, 1010, 990, 1005, 995)
	cases := []struct {
		name string
		b    []result
		want string
		code int
	}{
		{"same", fakeRuns("oltp-mem", 0, 1001, 1008, 992, 1003, 996), "ok", 0},
		{"inside the bound", fakeRuns("oltp-mem", 0, 950, 955, 945, 951, 949), "ok", 0},
		{"slower by more than the bound", fakeRuns("oltp-mem", 0, 700, 705, 695, 701, 699), "regressed", 1},
		{"faster", fakeRuns("oltp-mem", 0, 1500, 1510, 1490, 1505, 1495), "ok", 0},
		{"too noisy to tell", fakeRuns("oltp-mem", 0, 1500, 600, 1000, 1400, 500), "unresolved", 0},
		{"more failed ops", fakeRuns("oltp-mem", 3, 1000, 1010, 990, 1005, 995), "regressed", 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := compareResults(&out, base, c.b)
		row := strings.Fields(strings.SplitN(out.String(), "\n", 2)[0])
		if code != c.code || len(row) < 2 || row[0] != "oltp-mem" || row[1] != c.want {
			t.Errorf("%s: code %d, output %q; want %s, code %d", c.name, code, out.String(), c.want, c.code)
		}
	}
	// "lower is better" metrics worsen upwards.
	d := metricDef{"x_us", "us", "lower", 0.10}
	if v, _ := judge(d, []float64{100}, []float64{115}); v != verdictRegressed {
		t.Errorf("latency +15%%: %v", v)
	}
	if v, _ := judge(d, []float64{100}, []float64{80}); v != verdictOK {
		t.Errorf("latency -20%%: %v", v)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest keeps BENCHMARK.json identical to the tables in spec.go
// and inside the driver contract's limits.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(specs) < 2 || len(specs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(specs), len(endToEnd), len(perLayer))
	}
	for _, w := range specs {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: its why is missing or too long", w.name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v", d)
		}
	}
}

// TestSmoke runs all four workloads, gated and traced, at a hundredth
// of the issue's sizes: every metric BENCHMARK.json names must be there
// and finite, no op may fail, and the in-memory workloads must not have
// touched a log.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	dir := t.TempDir()
	for _, w := range specs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.name, seed: 42, seconds: 1, trace: trace, scale: 0.01, workDir: dir}
			run := runInProcess
			if w.paged {
				run = runDurable
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, res.Failed, res.Attempted, res.Errors)
			}
			line, err := res.contractLine()
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
				continue
			}
			var parsed struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics on the result line, want %d", w.name, trace, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := parsed.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.Name, v, ok)
				}
				if trace && !w.paged && strings.HasPrefix(d.Name, "wal.") && v.Value != 0 {
					t.Errorf("%s: %s = %g on an in-memory workload", w.name, d.Name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat(traceFile(cfg)); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if w.paged && (res.Metrics["wal.syncs_per_commit"] <= 0 || res.Metrics["recovery.open_s"] <= 0) {
					t.Errorf("durable run without log syncs or recovery time: %v", res.Metrics)
				}
			}
		}
	}
}
