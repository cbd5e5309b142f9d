// Command tsbserve serves a TSB-tree database over TCP: the network
// face of the engine, speaking the pipelined binary protocol of
// internal/server/wire. It opens (or recovers) the durable database in
// -dir — page and burn device files, write-ahead log, checkpoint —
// listens on -addr, and drains cleanly on SIGTERM/SIGINT: in-flight
// request windows finish and are acknowledged, cursors close, and the
// database closes last — every acknowledged commit is on disk before
// the process exits.
//
// Usage:
//
//	tsbserve -dir DATA [-addr HOST:PORT] [-shards N]
//	         [-checkpoint-bytes N]
//	         [-metrics-addr HOST:PORT]
//	         [-window N] [-max-frame BYTES]
//	         [-idle-timeout D] [-write-timeout D] [-lease D]
//	         [-shed-wal-bytes N] [-drain-timeout D]
//
//	tsbserve -status [-watch D] -addr HOST:PORT
//
// -status dials a running server and prints its stats surface
// (connections, in-flight requests, shed count, open cursors, and op
// latency percentiles overall and per op class) instead of serving;
// -watch re-samples every interval and adds throughput deltas.
//
// The protocol is point ops (put, get, delete, atomic commit) and one
// range-read path: OpOpenQuery ships an operator tree (internal/query)
// — a plain range scan is the one-node tree; filter, project, merge
// join, secondary-index join, group-by, diff and history compose on top
// — compiled server-side over the session's snapshot and namespace into
// a leased cursor (at most 64 open per session), and OpQueryFetch
// streams its rows in batches. The per-op latency rows open_query and
// query_fetch track every scan in -status.
//
// -metrics-addr starts an HTTP sidecar on the serving process exposing
// /metrics (Prometheus text), /debug/vars (JSON), /debug/events and
// /debug/slow (background-job trace rings), and /debug/pprof/*. The
// sidecar reads atomic instruments only — scrapes take no engine latch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

func main() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], os.Stdout, sigCh); err != nil {
		fmt.Fprintln(os.Stderr, "tsbserve:", err)
		os.Exit(1)
	}
}

// run is main minus the process plumbing: args are the command line,
// stdout receives the human output, and sigCh delivers the shutdown
// signal — tests inject a synthetic SIGTERM through it.
func run(args []string, stdout io.Writer, sigCh <-chan os.Signal) error {
	fs := flag.NewFlagSet("tsbserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:4611", "listen address (or dial address with -status)")
	dir := fs.String("dir", "", "database directory (created or recovered; required to serve)")
	shards := fs.Int("shards", 4, "shard count for a newly created database")
	ckptBytes := fs.Int64("checkpoint-bytes", 0, "background checkpoint threshold (0 = engine default, <0 = off)")
	window := fs.Int("window", 64, "per-connection in-flight request window")
	maxFrame := fs.Int("max-frame", 0, "max frame payload bytes (0 = protocol default)")
	idleTimeout := fs.Duration("idle-timeout", 5*time.Minute, "close connections idle this long")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "per-flush write deadline")
	lease := fs.Duration("lease", time.Minute, "server-side cursor lease")
	shedWAL := fs.Int64("shed-wal-bytes", 0, "shed writes at this WAL backlog (0 = off)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max graceful drain before severing connections")
	metricsAddr := fs.String("metrics-addr", "", "HTTP observability sidecar address (/metrics, /debug/*; empty = off)")
	status := fs.Bool("status", false, "print a running server's stats and exit")
	watch := fs.Duration("watch", 0, "with -status, re-sample every interval until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *status {
		return printStatus(stdout, *addr, *watch, sigCh)
	}
	if *dir == "" {
		return errors.New("-dir is required (or -status to query a running server)")
	}

	d, err := db.Open(db.Config{
		Dir:             *dir,
		Shards:          *shards,
		CheckpointBytes: *ckptBytes,
	})
	if err != nil {
		return err
	}

	srv := server.New(d, server.Config{
		MaxFrameBytes:       *maxFrame,
		Window:              *window,
		IdleTimeout:         *idleTimeout,
		WriteTimeout:        *writeTimeout,
		CursorLease:         *lease,
		ShedWALBacklogBytes: *shedWAL,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = d.Close()
		return err
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	// Observability sidecar: the server's instruments join the engine's
	// registry, then one handler exposes the whole surface.
	var msrv *http.Server
	if *metricsAddr != "" {
		srv.RegisterMetrics(d.Metrics())
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			_ = ln.Close()
			_ = d.Close()
			return err
		}
		msrv = &http.Server{Handler: obs.Handler(d.Metrics(), d.Events())}
		go func() { _ = msrv.Serve(mln) }()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics\n", mln.Addr())
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	select {
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "caught %v, draining\n", sig)
	case err := <-serveDone:
		_ = d.Close()
		if err != nil {
			return err
		}
		return errors.New("listener closed unexpectedly")
	}

	// The drain order of the durability contract: stop intake, finish
	// and acknowledge every in-flight batch, close cursors, then close
	// the database (final checkpoint in durable mode).
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stdout, "drain timeout: %v (severed remaining connections)\n", err)
	}
	if msrv != nil {
		_ = msrv.Close()
	}
	if err := <-serveDone; err != nil {
		_ = d.Close()
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(stdout, "drained: %d ops served, %d shed, p99 %dus\n", st.Ops, st.Shed, st.P99Micros)
	if err := d.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "closed")
	return nil
}

func printStatus(stdout io.Writer, addr string, watch time.Duration, sigCh <-chan os.Signal) error {
	c, err := client.Dial(addr, client.Options{DialTimeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	renderStatus(stdout, addr, st, nil, 0)
	if watch <= 0 {
		return nil
	}
	t := time.NewTicker(watch)
	defer t.Stop()
	for {
		select {
		case <-sigCh:
			return nil
		case <-t.C:
			prev := st
			st, err = c.Stats()
			if err != nil {
				return err
			}
			renderStatus(stdout, addr, st, &prev, watch)
		}
	}
}

// renderStatus prints one stats sample; with a previous sample it adds
// the interval's throughput deltas.
func renderStatus(stdout io.Writer, addr string, st wire.StatsReply, prev *wire.StatsReply, iv time.Duration) {
	fmt.Fprintf(stdout, "tsbserve %s\n", addr)
	fmt.Fprintf(stdout, "  connections: %d open, %d total\n", st.Conns, st.TotalConns)
	fmt.Fprintf(stdout, "  in-flight:   %d\n", st.InFlight)
	fmt.Fprintf(stdout, "  ops:         %d executed\n", st.Ops)
	fmt.Fprintf(stdout, "  overload:    %d writes shed by admission control\n", st.Shed)
	fmt.Fprintf(stdout, "  cursors:     %d open, %d reclaimed by lease\n", st.Cursors, st.CursorsReclaimed)
	fmt.Fprintf(stdout, "  latency:     p50 %dus, p99 %dus\n", st.P50Micros, st.P99Micros)
	if prev != nil && iv > 0 {
		secs := iv.Seconds()
		fmt.Fprintf(stdout, "  interval:    %.0f ops/s, %.0f shed/s\n",
			float64(st.Ops-prev.Ops)/secs, float64(st.Shed-prev.Shed)/secs)
	}
	if len(st.PerOp) > 0 {
		fmt.Fprintf(stdout, "  %-14s %10s %10s %10s %10s\n", "per-op", "count", "p50", "p99", "max")
		for _, oc := range st.PerOp {
			fmt.Fprintf(stdout, "  %-14s %10d %8dus %8dus %8dus\n",
				oc.Name, oc.Count, oc.P50Micros, oc.P99Micros, oc.MaxMicros)
		}
	}
	if st.Draining {
		fmt.Fprintln(stdout, "  draining")
	}
}
