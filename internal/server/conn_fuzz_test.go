package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/query"
	"repro/internal/record"
	"repro/internal/server/wire"
)

// FuzzServeConn feeds arbitrary bytes to one served session and reads
// its responses concurrently from a net.Pipe. Every response must be a
// well-formed frame whose body wire.DecodeResponse accepts or refuses
// with a typed *wire.Error, the loop must return once the peer's input
// ends, and nothing may panic.
//
//	go test -run='^$' -fuzz=FuzzServeConn -fuzztime=30s ./internal/server
func FuzzServeConn(f *testing.F) {
	frame := func(payload []byte) []byte { return record.AppendFrame(nil, payload) }
	hello := frame(wire.AppendHello(nil, wire.Hello{Version: wire.ProtocolVersion, Tenant: []byte("fz")}))
	put := record.NewEncoder(nil)
	put.Byte(wire.OpPut)
	put.Key(record.Key("k"))
	put.Blob([]byte("v"))
	get := record.NewEncoder(nil)
	get.Byte(wire.OpGet)
	get.Key(record.Key("k"))
	get.Time(0)
	open, err := wire.AppendOpenQuery(nil, query.Scan(nil, record.InfiniteBound()))
	if err != nil {
		f.Fatal(err)
	}
	var session []byte
	for _, p := range [][]byte{put.Bytes(), {wire.OpRefresh}, get.Bytes(), open, wire.AppendQueryFetch(nil, 1, 8)} {
		session = append(session, frame(p)...)
	}
	f.Add(append(append([]byte(nil), hello...), session...))

	badCRC := append(append([]byte(nil), hello...), frame([]byte{wire.OpPing})...)
	badCRC[len(badCRC)-1] ^= 0xff // the ping's payload no longer matches its CRC
	f.Add(badCRC)
	f.Add(append(append([]byte(nil), hello...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0))
	f.Add(append(append([]byte(nil), hello...), frame(put.Bytes())[:7]...))

	d, err := db.Open(db.Config{})
	if err != nil {
		f.Fatal(err)
	}
	s := New(d, Config{MaxFrameBytes: 1 << 12, CursorLease: time.Second})
	f.Cleanup(func() {
		_ = s.Shutdown(context.Background())
		_ = d.Close()
	})
	f.Fuzz(func(t *testing.T, in []byte) {
		sc, cc := net.Pipe()
		defer func() { _ = cc.Close() }()
		s.connWg.Add(1)
		served := make(chan struct{})
		go func() {
			s.serveConn(fuzzConn{Conn: sc, in: bytes.NewReader(in), step: 1 + len(in)%61})
			close(served)
		}()

		type stream struct {
			out []byte
			err error
		}
		read := make(chan stream, 1)
		go func() {
			out, err := io.ReadAll(cc)
			read <- stream{out, err}
		}()

		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("the connection loop did not return after the peer closed")
		}
		got := <-read
		if got.err != nil {
			t.Fatalf("reading responses: %v", got.err)
		}
		for out := got.out; len(out) > 0; {
			payload, rest, err := record.DecodeFrame(out, s.cfg.MaxFrameBytes)
			if err != nil {
				t.Fatalf("malformed response frame: %v", err)
			}
			var we *wire.Error
			if _, err := wire.DecodeResponse(payload); err != nil && !errors.As(err, &we) {
				t.Fatalf("undecodable response: %v", err)
			}
			out = rest
		}
	})
}

// fuzzConn is the server's end of a fuzzed session: reads return the
// input at most step bytes at a time, so frames arrive split at
// input-dependent points, and then io.EOF, as a peer's half-close
// would; writes, deadlines and Close go to the net.Pipe.
type fuzzConn struct {
	net.Conn
	in   *bytes.Reader
	step int
}

func (c fuzzConn) Read(p []byte) (int, error) {
	return c.in.Read(p[:min(len(p), c.step)])
}
