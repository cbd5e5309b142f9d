package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/server/client"
	"repro/internal/txn"
	"repro/internal/wal"
)

// prefixWriter hands each stdout line to a callback as it appears —
// how the test learns the ephemeral listen address.
type prefixWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines []string
	line  func(string)
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // partial line back
			break
		}
		line = strings.TrimSpace(line)
		w.lines = append(w.lines, line)
		w.line(line)
	}
	return len(p), nil
}

func (w *prefixWriter) output() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.lines, "\n")
}

// TestSIGTERMDrainMidPipeline is the graceful-drain contract end to
// end: clients hammer the daemon with pipelined commits and open
// cursors, a SIGTERM lands mid-flight, and afterwards (a) run returned
// cleanly, (b) reopening the directory shows every acknowledged commit,
// and (c) no cursor or connection leaked. Run under -race this also
// proves the drain path clean of latch races.
func TestSIGTERMDrainMidPipeline(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan string, 1)
	out := &prefixWriter{line: func(line string) {
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			addrCh <- rest
		}
	}}
	sigCh := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{
			"-dir", dir, "-addr", "127.0.0.1:0",
			"-shards", "4", "-window", "16", "-drain-timeout", "20s",
		}, out, sigCh)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}

	const workers = 6
	type acked struct {
		key string
		ct  record.Timestamp
	}
	ackedCh := make(chan acked, workers*10000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{Tenant: []byte("term"), Window: 16})
			if err != nil {
				return
			}
			defer func() { _ = c.Close() }()
			// Leave a cursor open so drain must also reap cursor state.
			if sc, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{}); err == nil {
				defer func() { _ = sc.Close() }()
			}
			type inflight struct {
				key  string
				call *client.Call
			}
			var window []inflight
			reap := func(f inflight) {
				if ct, err := f.call.Time(); err == nil {
					ackedCh <- acked{f.key, ct}
				}
			}
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-%06d", w, i)
				call, err := c.PutAsync(record.Key(key), []byte("sigterm-payload"))
				if err != nil {
					break
				}
				window = append(window, inflight{key, call})
				if len(window) >= 8 {
					reap(window[0])
					window = window[1:]
				}
			}
			for _, f := range window {
				reap(f)
			}
		}(w)
	}

	// Mid-pipeline, pull the trigger.
	time.Sleep(150 * time.Millisecond)
	sigCh <- syscall.SIGTERM

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	wg.Wait()
	close(ackedCh)

	stdout := out.output()
	for _, want := range []string{"caught terminated, draining", "drained:", "closed"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("daemon output missing %q:\n%s", want, stdout)
		}
	}

	// The drain ended at Close's final checkpoint: the WAL holds no
	// frame past the installed checkpoint's LSN, so the reopen below
	// replays nothing.
	info, _, err := wal.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if _, _, err := wal.ReplayFile(seg.Path, info.LSN, func(lsn uint64, _ txn.CommitRecord) error {
			return fmt.Errorf("frame %d past the drain's checkpoint (LSN %d)", lsn, info.LSN)
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every acknowledged commit must be in the reopened database.
	d, err := db.Open(db.Config{Dir: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	count := 0
	for a := range ackedCh {
		count++
		pk := record.PrefixKey([]byte("term"), record.Key(a.key))
		if _, found, err := d.GetAsOf(pk, a.ct); err != nil || !found {
			t.Fatalf("acked commit %q@%d lost across SIGTERM drain (err=%v)", a.key, a.ct, err)
		}
	}
	if count == 0 {
		t.Fatal("no acked commits before SIGTERM; test proved nothing")
	}
	t.Logf("verified %d acked commits across SIGTERM drain", count)
}

// TestStatusFlag exercises the -status path against a live daemon.
func TestStatusFlag(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan string, 1)
	out := &prefixWriter{line: func(line string) {
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			select {
			case addrCh <- rest:
			default:
			}
		}
	}}
	sigCh := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, out, sigCh)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runDone:
		t.Fatalf("daemon exited: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no address")
	}

	c, err := client.Dial(addr, client.Options{Tenant: []byte("s")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(record.Key("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var status bytes.Buffer
	if err := run([]string{"-status", "-addr", addr}, &status, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"connections:", "ops:", "overload:", "cursors:", "latency:",
		"per-op", "hello", "put",
	} {
		if !strings.Contains(status.String(), want) {
			t.Fatalf("status output missing %q:\n%s", want, status.String())
		}
	}

	sigCh <- syscall.SIGTERM
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFlagsRejected: the background-migration knobs are gone, and
// naming one is an error rather than a silent no-op.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-migration", "-shed-queue=1"} {
		// A queued SIGTERM makes a daemon that accepted the flag drain
		// and return nil at once instead of serving forever.
		sigCh := make(chan os.Signal, 1)
		sigCh <- syscall.SIGTERM
		err := run([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:0", flag}, io.Discard, sigCh)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%s) = %v, want an unknown-flag error", flag, err)
		}
	}
}

// TestMetricsScrape is the exposition contract against a live daemon:
// -metrics-addr serves /metrics, the output survives a scraper-grade
// parse, and the required engine and server series are present with
// real observations behind them. This is the test CI's scrape smoke
// runs under -race.
func TestMetricsScrape(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	out := &prefixWriter{line: func(line string) {
		if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			select {
			case addrCh <- rest:
			default:
			}
		}
		if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
			select {
			case metricsCh <- rest:
			default:
			}
		}
	}}
	sigCh := make(chan os.Signal, 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run([]string{
			"-dir", dir, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0",
		}, out, sigCh)
	}()
	var addr, metricsURL string
	for addr == "" || metricsURL == "" {
		select {
		case addr = <-addrCh:
		case metricsURL = <-metricsCh:
		case err := <-runDone:
			t.Fatalf("daemon exited: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never announced its addresses")
		}
	}

	// Drive real work through every instrumented layer: durable commits
	// (WAL fsync, commit latency), reads (shard latches), a scan.
	c, err := client.Dial(addr, client.Options{Tenant: []byte("m")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		key := record.Key(fmt.Sprintf("k%03d", i))
		if _, err := c.Put(key, []byte("scrape-me")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, metricsURL)
	samples, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("scraper rejected /metrics: %v\n%s", err, body)
	}
	required := []string{
		"tsb_commit_latency_seconds",
		"tsb_wal_fsync_seconds",
		"tsb_checkpoint_pause_seconds",
		"tsb_latch_wait_seconds",
		"tsb_buffer_hit_ratio",
		"tsb_server_op_seconds",
		"tsb_server_ops_total",
		"tsb_server_shed_total",
		"tsb_server_conns_total",
	}
	if missing := obs.RequireSeries(samples, required); len(missing) != 0 {
		t.Fatalf("required series missing from /metrics: %v", missing)
	}
	// The workload above must be visible, not just the series' shapes.
	for _, s := range samples {
		if s.Series == `tsb_commit_latency_seconds_count{mode="durable"}` && s.Value == 0 {
			t.Error("durable commits ran but tsb_commit_latency_seconds counted none")
		}
		if s.Name == "tsb_server_ops_total" && s.Value < 64 {
			t.Errorf("tsb_server_ops_total = %v after 64+ ops", s.Value)
		}
	}

	// The JSON mirror must decode, and the debug rings must serve.
	base := strings.TrimSuffix(metricsURL, "/metrics")
	var vars map[string]any
	if err := json.Unmarshal(httpGet(t, base+"/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if _, ok := vars["tsb_server_ops_total"]; !ok {
		t.Error("/debug/vars missing tsb_server_ops_total")
	}
	httpGet(t, base+"/debug/events")
	httpGet(t, base+"/debug/slow")

	sigCh <- syscall.SIGTERM
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return body
}
