package server_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

func TestServerQueryScan(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("acme")})
	other := h.dial(t, client.Options{Tenant: []byte("rival")})

	for i := 0; i < 40; i++ {
		if _, err := c.Put(record.Key(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := other.Put(record.Key("k05"), []byte("rival-owned")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Filter pushdown over the wire, batched smaller than the result.
	qs, err := c.QueryScan(
		query.Scan(nil, record.InfiniteBound()).
			Filter(record.Key("k03"), record.KeyBound(record.Key("k08"))),
		client.QueryOptions{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := qs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for i, r := range rows {
		want := fmt.Sprintf("k%02d", i+3)
		if string(r.Key) != want {
			t.Fatalf("row %d key = %q, want %q", i, r.Key, want)
		}
		if len(r.Versions) != 1 || string(r.Versions[0].Key) != want {
			t.Fatalf("row %d version key = %+v", i, r.Versions)
		}
		if string(r.Versions[0].Value) == "rival-owned" {
			t.Fatal("tenant isolation breached: rival's value surfaced")
		}
	}

	// GroupBy over one key's history.
	for i := 0; i < 3; i++ {
		if _, err := c.Put(record.Key("k00"), []byte(fmt.Sprintf("w%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	qs, err = c.QueryScan(
		query.Window(record.Key("k00"), record.KeyBound(record.Key("k01")), 1, record.TimeInfinity).
			GroupBy(),
		client.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = qs.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Count != 4 || string(rows[0].Key) != "k00" {
		t.Fatalf("group rows = %+v", rows)
	}
}

func TestServerQueryBadSpec(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("acme")})

	// A Where closure is refused locally, before any bytes move.
	if _, err := c.QueryScan(
		query.Scan(nil, record.InfiniteBound()).FilterWhere(func(query.Row) bool { return true }),
		client.QueryOptions{}); err == nil {
		t.Fatal("Where closure crossed the wire")
	}

	// A structurally-invalid tree is the typed bad-request.
	_, err := c.QueryScan(query.Scan(nil, record.InfiniteBound()).WithLimit(0).
		FilterValuePrefix([]byte("x")), client.QueryOptions{})
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("limit-0 spec: err = %v, want CodeBadRequest", err)
	}
}

func TestServerQueryCursorLease(t *testing.T) {
	h := start(t, db.Config{}, server.Config{
		CursorLease: 50 * time.Millisecond,
	})
	c := h.dial(t, client.Options{Tenant: []byte("acme")})
	for i := 0; i < 10; i++ {
		if _, err := c.Put(record.Key(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}

	// Open a query, fetch nothing, and let the lease lapse: the janitor
	// must reap the cursor and close its serial pipeline, which pins
	// only heap while idle.
	if _, err := c.QueryScan(query.Scan(nil, record.InfiniteBound()), client.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.CursorsReclaimed >= 1 && st.Cursors == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query cursor not reaped: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerSessionCursorCap pins the per-session bound on open cursors:
// every cursor is a leased operator pipeline, so one connection may hold
// only so many. The refusal is the typed retryable overloaded error.
func TestServerSessionCursorCap(t *testing.T) {
	h := start(t, db.Config{}, server.Config{})
	c := h.dial(t, client.Options{Tenant: []byte("cap")})
	for i := 0; i < 4; i++ {
		if _, err := c.Put(record.Key(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Refresh(); err != nil {
		t.Fatal(err)
	}

	const limit = 64 // server.maxSessionCursors
	scans := make([]*client.Scan, 0, limit)
	for i := 0; i < limit; i++ {
		sc, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		scans = append(scans, sc)
	}
	if _, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{}); !wire.IsOverloaded(err) || !wire.IsRetryable(err) {
		t.Fatalf("open %d: err = %v, want retryable overloaded", limit+1, err)
	}
	// The cap is the session's, not the server's.
	other := h.dial(t, client.Options{Tenant: []byte("cap")})
	if sc, err := other.Scan(nil, record.InfiniteBound(), client.ScanOptions{}); err != nil {
		t.Fatalf("another session refused: %v", err)
	} else if err := sc.Close(); err != nil {
		t.Fatal(err)
	}

	// Closing one admits the next, and so does draining one to its end.
	if err := scans[0].Close(); err != nil {
		t.Fatal(err)
	}
	if vs, err := scans[1].Collect(); err != nil || len(vs) != 4 {
		t.Fatalf("drain: %d versions, err %v", len(vs), err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{}); err != nil {
			t.Fatalf("open after release %d: %v", i, err)
		}
	}
	if _, err := c.Scan(nil, record.InfiniteBound(), client.ScanOptions{}); !wire.IsOverloaded(err) {
		t.Fatalf("open past the refilled cap: err = %v, want overloaded", err)
	}

	// Session close releases every cursor it held.
	if st := h.srv.Stats(); st.Cursors != limit {
		t.Fatalf("open cursors = %d, want %d", st.Cursors, limit)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.srv.Stats().Cursors != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session close left %d cursors open", h.srv.Stats().Cursors)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
