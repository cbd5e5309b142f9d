package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
	"repro/internal/txn"
)

// harness starts a server over a fresh DB on a loopback listener.
type harness struct {
	d    *db.DB
	srv  *server.Server
	addr string
	dir  string
	done chan error
}

func start(t *testing.T, dcfg db.Config, scfg server.Config) *harness {
	t.Helper()
	if dcfg.Dir == "" {
		dcfg.Dir = t.TempDir()
	}
	if dcfg.Shards == 0 {
		dcfg.Shards = 4
	}
	if dcfg.CheckpointBytes == 0 {
		dcfg.CheckpointBytes = -1
	}
	d, err := db.Open(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(d, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{d: d, srv: srv, addr: ln.Addr().String(), dir: dcfg.Dir, done: make(chan error, 1)}
	go func() { h.done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-h.done; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := d.Close(); err != nil {
			t.Errorf("db close: %v", err)
		}
	})
	return h
}

func (h *harness) dial(t *testing.T, opt client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(h.addr, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestServerBasicOps(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("acme")})

	ct1, err := c.Put(record.Key("alpha"), []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := c.Put(record.Key("beta"), []byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if ct2 <= ct1 {
		t.Fatalf("commit times not monotonic: %d then %d", ct1, ct2)
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(record.Key("alpha"))
	if err != nil || !found {
		t.Fatalf("get alpha: found=%v err=%v", found, err)
	}
	if !bytes.Equal(v.Value, []byte("one")) || !bytes.Equal(v.Key, record.Key("alpha")) {
		t.Fatalf("get alpha = %q/%q", v.Key, v.Value)
	}
	if v.Time != ct1 {
		t.Fatalf("alpha version time %d, want commit time %d", v.Time, ct1)
	}

	// Time travel: as-of before beta's commit, beta is absent.
	if _, found, err := c.GetAt(record.Key("beta"), ct1); err != nil || found {
		t.Fatalf("beta at %d: found=%v err=%v", ct1, found, err)
	}

	// Atomic multi-op commit, then delete.
	ct3, err := c.Commit([]wire.CommitOp{
		{Key: record.Key("gamma"), Value: []byte("three")},
		{Key: record.Key("alpha"), Delete: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.GetAt(record.Key("alpha"), ct3); found {
		t.Fatal("alpha alive after atomic delete")
	}
	if v, found, _ := c.GetAt(record.Key("gamma"), ct3); !found || !bytes.Equal(v.Value, []byte("three")) {
		t.Fatalf("gamma after commit: found=%v v=%q", found, v.Value)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops == 0 || st.Conns == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestServerSessionSnapshot(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	w := h.dial(t, client.Options{Tenant: []byte("t")})
	ct, err := w.Put(record.Key("k"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}

	// A session opened now pins its snapshot at the current clock:
	// writes committed after open stay invisible until Refresh.
	r := h.dial(t, client.Options{Tenant: []byte("t")})
	if r.SessionAt() < ct {
		t.Fatalf("session pinned at %d, before existing commit %d", r.SessionAt(), ct)
	}
	if _, err := w.Put(record.Key("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, found, err := r.Get(record.Key("k"))
	if err != nil || !found {
		t.Fatalf("snapshot get: found=%v err=%v", found, err)
	}
	if !bytes.Equal(v.Value, []byte("v1")) {
		t.Fatalf("snapshot read saw later write: %q", v.Value)
	}
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := r.Get(record.Key("k")); !bytes.Equal(v.Value, []byte("v2")) {
		t.Fatalf("post-refresh read = %q, want v2", v.Value)
	}

	// An explicit historical pin sees the old version.
	old := h.dial(t, client.Options{Tenant: []byte("t"), At: ct})
	if v, _, _ := old.Get(record.Key("k")); !bytes.Equal(v.Value, []byte("v1")) {
		t.Fatalf("pinned session read = %q, want v1", v.Value)
	}
}

func TestServerTenantIsolation(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	a := h.dial(t, client.Options{Tenant: []byte("tenant-a")})
	b := h.dial(t, client.Options{Tenant: []byte("tenant-b")})

	if _, err := a.Put(record.Key("shared-key"), []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Put(record.Key("shared-key"), []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	for _, cl := range []*client.Client{a, b} {
		if _, err := cl.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if v, _, _ := a.Get(record.Key("shared-key")); !bytes.Equal(v.Value, []byte("from-a")) {
		t.Fatalf("tenant a sees %q", v.Value)
	}
	if v, _, _ := b.Get(record.Key("shared-key")); !bytes.Equal(v.Value, []byte("from-b")) {
		t.Fatalf("tenant b sees %q", v.Value)
	}

	// A full-range scan of tenant a never leaks b's keys.
	sc, err := a.Scan(nil, record.InfiniteBound(), client.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sc.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !bytes.Equal(vs[0].Value, []byte("from-a")) {
		t.Fatalf("tenant a scan = %d versions %v", len(vs), vs)
	}
}

func TestServerCursorPagination(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("p")})
	const n = 50
	var at25 record.Timestamp // the commit time of k024: 25 keys exist then
	for i := 0; i < n; i++ {
		ct, err := c.Put(record.Key(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 24 {
			at25 = ct
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Tiny batches force many fetch round-trips over one cursor.
	sc, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for sc.Next() {
		got = append(got, string(sc.Version().Key))
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != n {
		t.Fatalf("scan yielded %d keys, want %d", len(got), n)
	}
	for i, k := range got {
		if want := fmt.Sprintf("k%03d", i); k != want {
			t.Fatalf("key %d = %q, want %q", i, k, want)
		}
	}

	// Reverse with a limit, over a sub-range.
	sc, err = c.Scan(record.Key("k010"), record.KeyBound(record.Key("k020")),
		client.ScanOptions{Reverse: true, Limit: 5, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sc.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 5 {
		t.Fatalf("reverse limited scan yielded %d, want 5", len(vs))
	}
	for i, v := range vs {
		if want := fmt.Sprintf("k%03d", 19-i); string(v.Key) != want {
			t.Fatalf("reverse key %d = %q, want %q", i, v.Key, want)
		}
	}

	// Time travel (At older than the session snapshot) and a bounded
	// high edge inside the tenant namespace, each across several fetches.
	for _, tc := range []struct {
		name        string
		low         string
		high        string
		opts        client.ScanOptions
		first, last int
	}{
		{"at", "", "k040", client.ScanOptions{At: at25, BatchSize: 4}, 0, 24},
		{"bounded-high", "k005", "k030", client.ScanOptions{BatchSize: 7}, 5, 29},
	} {
		sc, err := c.Scan(record.Key(tc.low), record.KeyBound(record.Key(tc.high)), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := sc.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != tc.last-tc.first+1 {
			t.Fatalf("%s scan yielded %d keys, want %d", tc.name, len(vs), tc.last-tc.first+1)
		}
		for i, v := range vs {
			if want := fmt.Sprintf("k%03d", tc.first+i); string(v.Key) != want {
				t.Fatalf("%s key %d = %q, want %q", tc.name, i, v.Key, want)
			}
		}
	}
}

// TestServerCursorHoldsNoLatch pins the acceptance criterion: between
// fetch frames a server-side cursor holds no DB latch — a writer can
// commit and every shard's write latch can be taken while a scan sits
// mid-range.
func TestServerCursorHoldsNoLatch(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("nl")})
	for i := 0; i < 20; i++ {
		if _, err := c.Put(record.Key(fmt.Sprintf("k%02d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() {
		t.Fatal("empty scan")
	}

	// Mid-scan: a write commits without blocking...
	wdone := make(chan error, 1)
	go func() {
		wdone <- h.d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.Key("unrelated"), []byte("w"))
		})
	}()
	select {
	case err := <-wdone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked while a server cursor was open mid-scan")
	}
	// ...and every shard's write latch is takeable.
	for i := 0; i < h.d.Shards(); i++ {
		if err := h.d.WithShardTree(i, func(*core.Tree) error { return nil }); err != nil {
			t.Fatalf("shard %d write latch: %v", i, err)
		}
	}

	// The scan still completes, pinned at its snapshot (the new write
	// is invisible).
	count := 1
	for sc.Next() {
		if string(sc.Version().Key) == "unrelated" {
			t.Fatal("pinned scan observed a post-open commit")
		}
		count++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if count != 20 {
		t.Fatalf("scan yielded %d, want 20", count)
	}
}

func TestServerCursorLeaseExpiry(t *testing.T) {
	// Short lease so the janitor (ticking at lease/4, floor 10ms) reaps
	// quickly.
	h2 := start(t, db.Config{}, server.Config{CursorLease: 40 * time.Millisecond})
	c := h2.dial(t, client.Options{Tenant: []byte("lease")})
	for i := 0; i < 10; i++ {
		if _, err := c.Put(record.Key(fmt.Sprintf("k%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	sc, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Next() {
		t.Fatal("empty scan")
	}

	// Abandon the cursor: stop fetching and let the lease lapse.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := h2.srv.Stats()
		if st.CursorsReclaimed >= 1 && st.Cursors == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor not reclaimed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Draining the abandoned scan now hits the typed unknown-cursor
	// error on its next fetch.
	for sc.Next() {
	}
	var we *wire.Error
	if !errors.As(sc.Err(), &we) || we.Code != wire.CodeUnknownCursor {
		t.Fatalf("post-expiry fetch error = %v, want unknown cursor", sc.Err())
	}
}

func TestServerAdmissionShed(t *testing.T) {
	// WAL backlog watermark of one byte: the first commit trips it.
	// Negative probe interval disables verdict caching.
	h := start(t, db.Config{}, server.Config{
		ShedWALBacklogBytes: 1,
		AdmissionProbe:      -1,
	})
	c := h.dial(t, client.Options{Tenant: []byte("shed")})

	ct, err := c.Put(record.Key("first"), []byte("in"))
	if err != nil {
		t.Fatalf("first put (backlog empty) refused: %v", err)
	}

	// Backlog is now nonzero: writes shed with the typed retryable
	// error, before any effect.
	_, err = c.Put(record.Key("second"), []byte("out"))
	if !wire.IsOverloaded(err) || !wire.IsRetryable(err) {
		t.Fatalf("over-watermark put error = %v, want typed overloaded", err)
	}
	// Reads are never shed.
	if _, found, err := c.GetAt(record.Key("first"), ct); err != nil || !found {
		t.Fatalf("read during shed: found=%v err=%v", found, err)
	}
	if st := h.srv.Stats(); st.Shed == 0 {
		t.Fatalf("shed counter = 0 after refusal")
	}

	// A checkpoint re-anchors the backlog to zero: admission reopens.
	if err := h.d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(record.Key("third"), []byte("in-again")); err != nil {
		t.Fatalf("post-checkpoint put refused: %v", err)
	}

	// Zero accepted-then-lost: the shed key must be absent, the acked
	// ones present.
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get(record.Key("second")); found {
		t.Fatal("shed write became visible")
	}
	for _, k := range []string{"first", "third"} {
		if _, found, _ := c.Get(record.Key(k)); !found {
			t.Fatalf("acked write %q lost", k)
		}
	}
}

func TestServerMaxFrameEnforced(t *testing.T) {
	h := start(t, db.Config{}, server.Config{MaxFrameBytes: 1 << 10})
	c, err := client.Dial(h.addr, client.Options{Tenant: []byte("f")})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// A request past the server's frame cap gets one typed refusal and
	// the connection closes (the stream offset is no longer trustable).
	_, err = c.Put(record.Key("big"), make([]byte, 1<<11))
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("oversized frame error = %v, want bad request", err)
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("connection survived a framing violation")
	}
}

// TestServerRefusesOldProtocol: a version-1 peer (whose op codes past
// commit mean something else now) is refused at Hello by the version
// check, with the typed bad-request, before it can send anything else.
func TestServerRefusesOldProtocol(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	hello := wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion - 1, Tenant: []byte("old")})
	if _, err := nc.Write(record.AppendFrame(nil, hello)); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := record.ReadFrame(nc, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wire.DecodeResponse(payload)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("version-1 hello: err = %v, want bad request", err)
	}
}

// TestServerDrain pins the drain contract at the server level: during
// Shutdown every request already in a window executes and is
// acknowledged, and every acknowledged commit is durable across reopen.
func TestServerDrain(t *testing.T) {
	dir := t.TempDir()
	d, err := db.Open(db.Config{Dir: dir, Shards: 4, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(d, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const workers = 8
	type acked struct {
		key string
		ct  record.Timestamp
	}
	ackedCh := make(chan acked, workers*1000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(ln.Addr().String(), client.Options{Tenant: []byte("drain"), Window: 16})
			if err != nil {
				return // draining already
			}
			defer func() { _ = c.Close() }()
			type inflight struct {
				key  string
				call *client.Call
			}
			var window []inflight
			reap := func(f inflight) {
				if ct, err := f.call.Time(); err == nil {
					ackedCh <- acked{key: f.key, ct: ct}
				}
			}
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-%06d", w, i)
				call, err := c.PutAsync(record.Key(key), []byte("payload"))
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

	// Let the pipeline run hot, then pull the plug mid-flight.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	close(ackedCh)
	if st := srv.Stats(); st.Cursors != 0 || st.Conns != 0 || !st.Draining {
		t.Fatalf("post-drain stats: %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every acknowledged commit must have survived.
	d2, err := db.Open(db.Config{Dir: dir, Shards: 4, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	count := 0
	for a := range ackedCh {
		count++
		pk := record.PrefixKey([]byte("drain"), record.Key(a.key))
		if _, found, err := d2.GetAsOf(pk, a.ct); err != nil || !found {
			t.Fatalf("acked commit %q@%d lost across drain+reopen (err=%v)", a.key, a.ct, err)
		}
	}
	if count == 0 {
		t.Fatal("no acked commits observed; drain test proved nothing")
	}
	t.Logf("verified %d acked commits across drain", count)

	// Dialing a drained server fails.
	if _, err := client.Dial(ln.Addr().String(), client.Options{DialTimeout: time.Second}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerManyConnections drives 1000 concurrent pipelined sessions —
// the acceptance floor for the service layer.
func TestServerManyConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-connection soak skipped in -short")
	}
	h := start(t, db.Config{Shards: 8}, server.Config{Window: 32})
	const conns = 1000
	const opsPerConn = 10
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(h.addr, client.Options{
				Tenant: []byte(fmt.Sprintf("t%03d", i%16)),
				Window: 16,
			})
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = c.Close() }()
			calls := make([]*client.Call, 0, opsPerConn)
			for j := 0; j < opsPerConn; j++ {
				call, err := c.PutAsync(record.Key(fmt.Sprintf("c%04d-%02d", i, j)), []byte("v"))
				if err != nil {
					errCh <- err
					return
				}
				calls = append(calls, call)
			}
			for _, call := range calls {
				if _, err := call.Time(); err != nil {
					errCh <- err
					return
				}
			}
			if _, err := c.Refresh(); err != nil {
				errCh <- err
				return
			}
			if _, found, err := c.Get(record.Key(fmt.Sprintf("c%04d-%02d", i, opsPerConn-1))); err != nil || !found {
				errCh <- fmt.Errorf("conn %d readback: found=%v err=%v", i, found, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := h.srv.Stats(); st.TotalConns < conns {
		t.Fatalf("TotalConns = %d, want >= %d", st.TotalConns, conns)
	}
}
