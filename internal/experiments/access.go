package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/workload"
)

// E5Result is one (structure, query kind) access-cost measurement.
type E5Result struct {
	Structure string
	Query     string
	Queries   int
	// AvgNodes is node accesses per query (§3.2's cost unit, whatever a
	// cache keeps): counted on the TSB-tree only, -1 elsewhere.
	AvgNodes float64
	AvgReads float64       // device reads per query (magnetic pages + WORM sectors)
	AvgTime  time.Duration // simulated device latency per query
}

// E5SearchIO measures access costs for the four query kinds on the three
// structures at a mixed workload (u=0.5). Expected shape: current-version
// searches are cheap on every structure (time splitting keeps the current
// database small); as-of and history queries pay optical accesses on the
// TSB-tree; the B+-tree cannot answer temporal queries at all; the WOBT
// pays optical costs even for current data.
func E5SearchIO(p Params) ([]E5Result, Table, error) {
	p = p.withDefaults()
	const u = 0.5
	var results []E5Result

	tsbRun, err := RunTSB("tsb-lastupdate", u, p)
	if err != nil {
		return nil, Table{}, err
	}
	// A second TSB instance behind a 64-page LRU cache shows what a
	// buffer manager buys on top of the raw device costs.
	pBuf := p
	pBuf.BufferPages = 64
	tsbBufRun, err := RunTSB("tsb-lastupdate", u, pBuf)
	if err != nil {
		return nil, Table{}, err
	}
	wobtRun, err := RunWOBT(u, p)
	if err != nil {
		return nil, Table{}, err
	}
	bplusMag, bplusTree, err := RunBPlus(u, p)
	if err != nil {
		return nil, Table{}, err
	}

	gen := workload.New(workload.Config{
		Ops: p.Ops, UpdateFraction: u, ValueSize: p.ValueSize, Seed: p.Seed,
		InitialKeys: initialKeys(p),
	})
	gen.All()
	nKeys := gen.KeysCreated()
	maxTime := uint64(p.Ops + initialKeys(p))
	rng := rand.New(rand.NewSource(99))

	// Node-access (nil but on the TSB-tree), device-read and
	// simulated-latency counters per structure.
	type device struct {
		nodes func() uint64
		reads func() uint64
		time  func() time.Duration
	}
	tsbDevice := func(r *TSBRun) device {
		return device{
			nodes: r.Tree.NodeAccesses,
			reads: func() uint64 { return r.Mag.Stats().Reads + r.WORM.Stats().SectorReads },
			time:  func() time.Duration { return r.Mag.Stats().SimTime + r.WORM.Stats().SimTime },
		}
	}
	tsb, tsbBuf := tsbDevice(tsbRun), tsbDevice(tsbBufRun)
	wobt := device{
		reads: func() uint64 { return wobtRun.WORM.Stats().SectorReads },
		time:  func() time.Duration { return wobtRun.WORM.Stats().SimTime },
	}
	bplus := device{
		reads: func() uint64 { return bplusMag.Stats().Reads },
		time:  func() time.Duration { return bplusMag.Stats().SimTime },
	}

	randKey := func() record.Key { return workload.KeyName(rng.Intn(nKeys)) }
	randTime := func() record.Timestamp { return record.Timestamp(1 + rng.Intn(int(maxTime))) }

	const nPoint = 500
	const nScan = 5
	const nHist = 100

	// Each probe runs one query n times on one structure and records the
	// device cost it added. The order is part of the experiment: every
	// probe draws its keys and times from the one rng. The B+-tree answers
	// current queries only — it has discarded all history.
	for _, pr := range []struct {
		structure, query string
		n                int
		dev              device
		run              func() error
	}{
		{"tsb", "get-current", nPoint, tsb, func() error { _, _, err := tsbRun.Tree.Get(randKey()); return err }},
		{"tsb+cache", "get-current", nPoint, tsbBuf, func() error { _, _, err := tsbBufRun.Tree.Get(randKey()); return err }},
		{"wobt", "get-current", nPoint, wobt, func() error { _, _, err := wobtRun.Tree.Get(randKey()); return err }},
		{"b+tree", "get-current", nPoint, bplus, func() error { _, _, err := bplusTree.Get(randKey()); return err }},
		{"tsb", "get-asof", nPoint, tsb, func() error { _, _, err := tsbRun.Tree.GetAsOf(randKey(), randTime()); return err }},
		{"wobt", "get-asof", nPoint, wobt, func() error { _, _, err := wobtRun.Tree.GetAsOf(randKey(), randTime()); return err }},
		{"tsb", "snapshot-scan", nScan, tsb, func() error { _, err := tsbRun.Tree.ScanAsOf(randTime(), nil, record.InfiniteBound()); return err }},
		{"wobt", "snapshot-scan", nScan, wobt, func() error { _, err := wobtRun.Tree.ScanAsOf(randTime(), nil, record.InfiniteBound()); return err }},
		{"tsb", "history", nHist, tsb, func() error { _, err := tsbRun.Tree.History(randKey()); return err }},
		{"wobt", "history", nHist, wobt, func() error { _, err := wobtRun.Tree.History(randKey()); return err }},
	} {
		nodes := func() float64 { return -1 }
		if pr.dev.nodes != nil {
			n0 := pr.dev.nodes()
			nodes = func() float64 { return float64(pr.dev.nodes()-n0) / float64(pr.n) }
		}
		r0, t0 := pr.dev.reads(), pr.dev.time()
		for i := 0; i < pr.n; i++ {
			if err := pr.run(); err != nil {
				return nil, Table{}, err
			}
		}
		results = append(results, E5Result{
			Structure: pr.structure,
			Query:     pr.query,
			Queries:   pr.n,
			AvgNodes:  nodes(),
			AvgReads:  float64(pr.dev.reads()-r0) / float64(pr.n),
			AvgTime:   (pr.dev.time() - t0) / time.Duration(pr.n),
		})
	}

	t := Table{
		Title:  "E5: access cost per query (node accesses | device reads | simulated latency), u=0.5",
		Header: []string{"structure", "query", "avg nodes", "avg reads", "avg latency"},
	}
	for _, r := range results {
		nodes := "-"
		if r.AvgNodes >= 0 {
			nodes = f3(r.AvgNodes)
		}
		t.Rows = append(t.Rows, []string{
			r.Structure, r.Query, nodes, f3(r.AvgReads), r.AvgTime.Round(time.Microsecond).String(),
		})
	}
	t.Remarks = append(t.Remarks,
		"b+tree answers current queries only: it has discarded all history",
		"expected: tsb current gets touch only magnetic nodes; wobt pays optical latency everywhere",
		"tsb+cache: the same tree behind a 64-page LRU buffer pool (device reads only)",
		"avg nodes: the tsb's node accesses; its decoded index level serves index nodes without a device read")
	return results, t, nil
}

// E9Result summarizes the lock-free read-only transaction experiment.
type E9Result struct {
	Commits        uint64
	ReaderScans    int
	WriterConflict uint64
	SnapshotLeaks  int // versions seen by a reader after its timestamp (must be 0)
	InvariantsOK   bool
}

// E9ReadOnly runs concurrent updaters and lock-free readers (§4.1):
// readers are given a timestamp when initiated, acquire no logical locks,
// and must observe internally consistent snapshots while updaters churn.
func E9ReadOnly(writers, readers, opsPerWriter, scansPerReader int) (E9Result, Table, error) {
	d, err := db.Open(db.Config{})
	if err != nil {
		return E9Result{}, Table{}, err
	}
	const nKeys = 100
	for i := 0; i < nKeys; i++ {
		k := workload.KeyName(i)
		if err := d.Update(func(tx *txn.Txn) error { return tx.Put(k, []byte("init")) }); err != nil {
			return E9Result{}, Table{}, err
		}
	}

	var res E9Result
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			for i := 0; i < opsPerWriter; i++ {
				k := workload.KeyName(rng.Intn(nKeys))
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				})
				if err != nil && !errors.Is(err, txn.ErrLockConflict) {
					fail(err)
					return
				}
			}
		}(w)
	}
	leaks := 0
	scans := 0
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scansPerReader; i++ {
				rt := d.ReadOnly()
				vs, err := rt.Scan(nil, record.InfiniteBound())
				if err != nil {
					fail(err)
					return
				}
				bad := 0
				for _, v := range vs {
					if v.Time > rt.Timestamp() {
						bad++
					}
				}
				mu.Lock()
				scans++
				leaks += bad
				if len(vs) != nKeys {
					firstErr = fmt.Errorf("reader snapshot had %d keys, want %d", len(vs), nKeys)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return E9Result{}, Table{}, firstErr
	}
	st := d.Stats()
	res.Commits = st.Txn.Committed
	res.ReaderScans = scans
	res.WriterConflict = st.Txn.Conflicts
	res.SnapshotLeaks = leaks
	res.InvariantsOK = d.CheckInvariants() == nil

	t := Table{
		Title:  "E9: lock-free read-only transactions under concurrent updaters (§4.1)",
		Header: []string{"measure", "value"},
		Rows: [][]string{
			{"writer commits", num(res.Commits)},
			{"reader snapshot scans", fmt.Sprintf("%d", res.ReaderScans)},
			{"writer lock conflicts", num(res.WriterConflict)},
			{"reader snapshot leaks", fmt.Sprintf("%d", res.SnapshotLeaks)},
			{"invariants hold", fmt.Sprintf("%v", res.InvariantsOK)},
		},
		Remarks: []string{
			"readers acquire no logical record locks and never wait for updater commits",
			"snapshot leaks must be 0: a reader sees only versions committed at or before its timestamp",
		},
	}
	return res, t, nil
}
