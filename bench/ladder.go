package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ladder is the traced run: the workload's own op stream, one client, a
// fixed op count (so counts repeat exactly), on three rungs.
//
//	A  the bench-assembled single-shard stack, spans on, then spans off:
//	   a layer's self time is its spans minus their children, and
//	   trace.overhead_ratio is traced / untraced ops per second;
//	B  db.Open with 1 and with 8 shards, stopwatch only:
//	   db.share_us_per_op = B(1 shard) - A(untraced), same tree shape;
//	C  served (that workload only), one sync session:
//	   wire.share_us_per_op = C - B(8 shards), same engine.
//
// The spans and the per-op-type stopwatch table go to the trace file.
func (s *session) ladder() error {
	ops := s.spec.ladderRate * s.cfg.seconds
	n := s.keys()
	sc := stackConfig{pageSize: 4096, bufferPages: 16384}
	if s.spec.paged {
		sc = stackConfig{pageSize: 8192, leafCapacity: 4096, bufferPages: scaled(baseDurableBufPgs, s.cfg.scale)}
	}
	table := map[string]map[string]float64{}
	record := func(rung string, p phase) error {
		if p.failed > 0 {
			return fmt.Errorf("ladder rung %s: %d of %d ops failed: %v", rung, p.failed, p.attempted, p.errs)
		}
		row := map[string]float64{"all": meanUS(p.lat[:]...)}
		for k, smp := range p.lat {
			if len(smp.ns) > 0 {
				row[kindNames[k]] = meanUS(smp)
			}
		}
		table[rung] = row
		return nil
	}

	// Rung A: two identical stacks, one traced and one not (a nil tracer
	// records nothing), fed the same stream in alternating chunks so both
	// see the same machine weather.
	tr := newTracer(ops * 64)
	var stacks [2]*stack
	var ws [2]*worker
	for pass, t := range []*tracer{tr, nil} {
		if s.spec.paged {
			sc.walDir = filepath.Join(s.dataDir, fmt.Sprintf("rungA%d", pass))
		}
		st, err := newStack(t, sc)
		if err != nil {
			return err
		}
		stacks[pass] = st
		m := newModel(n, s.spec.served)
		if err := s.spec.populate(st, m, s.cfg.seed, nil); err != nil {
			return err
		}
		ws[pass] = newWorker(0, 1, embedded{st, m}, m, s.spec.mix, s.cfg.seed, ops)
		ws[pass].tr = t
	}
	tr.start() // set-up is not traced
	const chunks = 8
	var elapsed [2]time.Duration
	for c := 0; c < chunks; c++ {
		count := ops / chunks
		if c == chunks-1 {
			count = ops - count*(chunks-1)
		}
		for pass, w := range ws {
			t0 := time.Now()
			w.run(count)
			elapsed[pass] += time.Since(t0)
		}
	}
	var rungA [2]phase
	for pass, name := range []string{"A.traced", "A"} {
		rungA[pass] = collect(ws[pass:pass+1], elapsed[pass])
		if err := stacks[pass].close(); err != nil {
			return err
		}
		if err := record(name, rungA[pass]); err != nil {
			return err
		}
	}
	spans := tr.spans
	self := selfTimes(spans)
	perOp := func(layer string) float64 { return float64(self[layer]) / 1e3 / float64(ops) }
	r := s.res.Metrics
	r["core.self_us_per_op"] = perOp("core")
	r["buffer.self_us_per_op"] = perOp("buffer")
	r["device.self_us_per_op"] = perOp("device")
	r["txn.self_us_per_op"] = perOp("txn")
	if puts := len(rungA[0].lat[opUpdate].ns) + len(rungA[0].lat[opInsert].ns); puts > 0 {
		r["wal.self_us_per_put"] = float64(self["wal"]) / 1e3 / float64(puts)
	}
	r["trace.overhead_ratio"] = ratio(float64(rungA[0].ops())/rungA[0].elapsed.Seconds(),
		float64(rungA[1].ops())/rungA[1].elapsed.Seconds())

	// Rung B, 1 and 8 shards; rung C on top of the 8-shard engine.
	for _, shards := range []int{1, 8} {
		rung := newSession(s.cfg, filepath.Join(s.dataDir, fmt.Sprintf("rungB%d", shards)), nil)
		sessions := 0
		if s.spec.served && shards == 8 {
			sessions = 1
		}
		if _, err := rung.open(shards, sessions, nil); err != nil {
			return err
		}
		rung.makeWorkers(1)
		if rung.srv != nil { // B first, straight on the engine; then C through the session
			rung.workers[0].tgt = embedded{rung.d, rung.m}
		}
		if err := record(fmt.Sprintf("B%d", shards), runPhase(rung.workers, ops)); err != nil {
			return err
		}
		if rung.srv != nil {
			// C replays the stream on the keys' next versions: same ops,
			// same engine, one more version per updated key.
			rung.makeWorkers(1)
			if err := record("C", runPhase(rung.workers, ops)); err != nil {
				return err
			}
			r["wire.share_us_per_op"] = table["C"]["all"] - table["B8"]["all"]
		}
		if err := rung.close(); err != nil {
			return err
		}
		if rung.spec.paged {
			if err := os.RemoveAll(rung.dataDir); err != nil {
				return err
			}
		}
	}
	r["db.share_us_per_op"] = table["B1"]["all"] - table["A"]["all"]
	// The ladder must add up: per op type, rung A's traced time (the sum
	// of its self times) plus the two shares against rung C's stopwatch.
	for kind, c := range table["C"] {
		sum := table["A.traced"][kind] + table["B1"][kind] - table["A"][kind] + c - table["B8"][kind]
		s.res.Notes = append(s.res.Notes, fmt.Sprintf("ladder check %s: self times + db.share + wire.share = %.1f us, rung C stopwatch %.1f us (%+.1f %%)",
			kind, sum, c, 100*(sum-c)/c))
	}

	selfUS := map[string]float64{}
	for layer, ns := range self {
		selfUS[layer] = float64(ns) / 1e3 / float64(ops)
	}
	return writeSpans(traceFile(s.cfg), spans, map[string]any{
		"workload": s.cfg.workload, "seed": s.cfg.seed, "ops": ops,
		"ladder_mean_us": table, "self_us_per_op": selfUS,
	})
}
