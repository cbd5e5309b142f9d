package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/server"
	"repro/internal/server/client"
)

// workloadSpec is what distinguishes the four workloads; everything
// else — clients, keys, skew, oracle, timing — is common.
type workloadSpec struct {
	name     string // stable identifier
	why      string // one line for BENCHMARK.json: which layers the workload stresses
	mix      mix
	baseKeys int
	rounds   int    // hot80 update rounds applied by set-up
	point    opKind // the op point_p50_us / point_p99_us time
	heavy    opKind // the op heavy_p50_us / heavy_p99_us time
	paged    bool   // Dir + PagedDevices, run in a child that is killed
	served   bool   // clients are RPC sessions over loopback
	// rate x seconds is the measured phase's op count over all clients,
	// frozen at what the seed commit does per second on the 2-core
	// reference box, so a phase lasts about --seconds there. A fixed count
	// (not a fixed time) keeps everything that depends on how much was
	// written - space_amp, rss_mb, splits, migrations - independent of how
	// fast the engine or the machine is.
	rate int
	// ladderRate x seconds is the traced ladder's op count per rung,
	// sized so a rung runs about a second at the seed commit.
	ladderRate int
}

var specs = []workloadSpec{
	{name: "oltp-mem", mix: mixOLTP, baseKeys: baseOLTPKeys, point: opGet, heavy: opUpdate, rate: 18000, ladderRate: 1000,
		why: "in-memory 8-shard engine, get/as-of/update/insert mix: core, record, txn and shard latches do all the work; wal, pagestore and server do none"},
	{name: "temporal-read", mix: mixTemporal, baseKeys: baseTemporalKeys, rounds: temporalRounds, point: opAsOf, heavy: opScan, rate: 3000, ladderRate: 200,
		why: "read-only as-of gets, histories, snapshot scans and diff queries over a history-rich tree: the paper's rollback queries, zero commits"},
	{name: "durable-paged", mix: mixDurable, baseKeys: baseDurableKeys, point: opGet, heavy: opUpdate, paged: true, rate: 5500, ladderRate: 400,
		why: "paged files with a pool smaller than the data, fsynced group commit, background checkpoints and migration, then kill -9 and recovery"},
	{name: "served", mix: mixServed, baseKeys: baseOLTPKeys, point: opGet, heavy: opUpdate, served: true, rate: 11000, ladderRate: 1000,
		why: "the oltp-mem engine behind the TCP server on loopback, sync RPC get/put: the difference to oltp-mem is server + wire + client"},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64
	workDir  string // data directories, trace files and result files go here
}

func (s workloadSpec) config(dir string, scale float64, shards int) db.Config {
	cfg := memConfig()
	if s.paged {
		cfg = pagedConfig(dir, scale)
	}
	cfg.Shards = shards
	return cfg
}

type ackFunc func(idx int, seq uint32, ct record.Timestamp)

// populate is the workload's set-up on an open engine: load the keys,
// then build history if the workload reads history.
func (s workloadSpec) populate(e engine, m *model, seed uint64, ack ackFunc) error {
	if err := loadKeys(e, m, m.n, ack); err != nil {
		return err
	}
	if s.rounds > 0 {
		return updateRounds(e, m, m.n, s.rounds, seed)
	}
	return nil
}

// serving is the TCP server in front of an engine, with its sessions.
type serving struct {
	srv      *server.Server
	addr     string
	done     chan error
	sessions []*client.Client
}

func serve(d *db.DB, sessions int) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serving{srv: server.New(d, server.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	s.srv.RegisterMetrics(d.Metrics())
	go func() { s.done <- s.srv.Serve(ln) }()
	for i := 0; i < sessions; i++ {
		if _, err := s.dial(1); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

func (s *serving) dial(window int) (*client.Client, error) {
	c, err := client.Dial(s.addr, client.Options{Window: window})
	if err != nil {
		return nil, err
	}
	s.sessions = append(s.sessions, c)
	return c, nil
}

// stop closes every session, drains the server, and waits for Serve.
func (s *serving) stop() error {
	for _, c := range s.sessions {
		_ = c.Close() // Close only severs; it has nothing to report
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil {
		err = serr
	}
	return err
}

// session is one workload run in this process: set-up, the measured
// phase, the quiescent check, and the metrics.
type session struct {
	cfg     runConfig
	spec    workloadSpec
	dataDir string
	ack     ackFunc

	d       *db.DB
	m       *model
	srv     *serving
	workers []*worker

	setupS []float64
	p      phase // the measured phase alone
	// Checks and ops outside the measured phase (quiescent check, open
	// loop): they count as attempted and failed, not into ops_per_s.
	extraAttempted, extraFailed uint64
	extraErrs                   []string
	before                      snapshot
	after                       snapshot
	dirtyMax                    int
	rssMB                       float64 // median resident set during the measured phase
	res                         *result
}

func newSession(cfg runConfig, dataDir string, ack ackFunc) *session {
	spec, _ := specByName(cfg.workload) // main rejected unknown names
	return &session{cfg: cfg, spec: spec, dataDir: dataDir, ack: ack, res: newResult(cfg, dataDir)}
}

func (s *session) keys() int { return scaled(s.spec.baseKeys, s.cfg.scale) }

// open builds the engine and its data once, timed, and puts the server
// with that many sessions in front of it when sessions > 0.
func (s *session) open(shards, sessions int, ack ackFunc) (time.Duration, error) {
	t0 := time.Now()
	if s.spec.paged {
		if err := os.RemoveAll(s.dataDir); err != nil {
			return 0, err
		}
	}
	d, err := db.Open(s.spec.config(s.dataDir, s.cfg.scale, shards))
	if err != nil {
		return 0, err
	}
	s.d, s.m = d, newModel(s.keys(), s.spec.served)
	if err := s.spec.populate(d, s.m, s.cfg.seed, ack); err != nil {
		return 0, err
	}
	if sessions > 0 {
		if s.srv, err = serve(d, sessions); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (s *session) close() error {
	var err error
	if s.srv != nil {
		err = s.srv.stop()
		s.srv = nil
	}
	if s.d != nil {
		if cerr := s.d.Close(); err == nil {
			err = cerr
		}
		s.d = nil
	}
	return err
}

// setup runs the set-up setupRepeats times (once when tracing, which
// does not report setup_s) and keeps the last. Only the kept one
// streams acknowledgements.
func (s *session) setup() error {
	repeats := setupRepeats
	if s.cfg.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if err := s.close(); err != nil {
			return err
		}
		ack := s.ack
		if i < repeats-1 {
			ack = nil
		}
		sessions := 0
		if s.spec.served {
			sessions = numClients()
		}
		dur, err := s.open(8, sessions, ack)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		s.setupS = append(s.setupS, dur.Seconds())
	}
	return nil
}

// makeWorkers builds one closed-loop worker per client (or one, for the
// ladder) on the open engine.
func (s *session) makeWorkers(clients int) {
	perClient := s.spec.rate*s.cfg.seconds/clients + 1 // latency arrays, preallocated
	s.workers = s.workers[:0]
	for c := 0; c < clients; c++ {
		var tgt target = embedded{s.d, s.m}
		if s.srv != nil {
			tgt = rpc{s.srv.sessions[c]}
		}
		w := newWorker(c, clients, tgt, s.m, s.spec.mix, s.cfg.seed, perClient)
		w.ack = s.ack
		s.workers = append(s.workers, w)
	}
}

// measure runs the measured phase between two snapshots. Caches are
// warm: set-up leaves the pool full of what it just wrote.
func (s *session) measure() error {
	s.makeWorkers(numClients())
	var err error
	if s.before, err = takeSnapshot(s.d); err != nil {
		return err
	}
	sampler := startPhaseSampler(s.d, s.cfg.trace)
	s.p = runPhase(s.workers, s.spec.rate*s.cfg.seconds/len(s.workers))
	s.rssMB, s.dirtyMax = sampler.finish()
	s.after, err = takeSnapshot(s.d)
	return err
}

// verify is the quiescent check after the measured phase: every key's
// history equals the model exactly, every inserted key reads back, and
// the engine's own invariants hold. Its checks count as attempted ops.
func (s *session) verify() {
	checks, extra, errs := verifyHistories(s.d, s.m)
	if len(extra) > 0 {
		errs = append(errs, fmt.Errorf("%d versions nobody was acknowledged, first %v", len(extra), extra[0]))
	}
	insChecks, insErrs := verifyInserted(s.d, s.m, s.workers)
	errs = append(errs, insErrs...)
	if err := s.d.CheckInvariants(); err != nil {
		errs = append(errs, fmt.Errorf("CheckInvariants: %w", err))
	}
	s.extraAttempted += checks + insChecks + 1
	s.extraFailed += uint64(len(errs))
	for _, err := range errs[:min(len(errs), maxKeptErrors)] {
		s.extraErrs = append(s.extraErrs, "verify: "+err.Error())
	}
}

// userBytes is the key+value bytes of every acknowledged version.
func (s *session) userBytes() float64 {
	var versions int
	for i := 0; i < s.m.n; i++ {
		versions += s.m.versions(i)
	}
	for _, w := range s.workers {
		versions += len(w.inserted)
	}
	return float64(versions) * userBytesPerVersion
}

// spaceAmp is the paper's space cost per user byte: magnetic plus
// write-once bytes, plus log and checkpoint files when durable.
func (s *session) spaceAmp() (float64, error) {
	dev := s.d.Stats().Device
	space := float64(dev.SpaceM + dev.SpaceO)
	if s.spec.paged {
		entries, err := os.ReadDir(s.dataDir)
		if err != nil {
			return 0, err
		}
		for _, ent := range entries {
			if info, err := ent.Info(); err == nil && !strings.HasSuffix(ent.Name(), ".dev") {
				space += float64(info.Size()) // wal segments, CHECKPOINT, journal
			}
		}
	}
	return space / s.userBytes(), nil
}

// fill computes every metric the session itself can know.
func (s *session) fill() error {
	r := s.res
	r.Attempted, r.Failed = s.p.attempted+s.extraAttempted, s.p.failed+s.extraFailed
	r.Errors = append(s.p.errs, s.extraErrs...)
	amp, err := s.spaceAmp()
	if err != nil {
		return err
	}
	point, heavy := s.p.lat[s.spec.point], s.p.lat[s.spec.heavy]
	r.Metrics["setup_s"] = median(s.setupS)
	r.Metrics["ops_per_s"] = float64(s.p.ops()) / s.p.elapsed.Seconds()
	r.Metrics["point_p50_us"] = point.p50us()
	r.Metrics["point_p99_us"] = point.p99us()
	r.Metrics["heavy_p50_us"] = heavy.p50us()
	r.Metrics["heavy_p99_us"] = heavy.p99us()
	r.Metrics["rss_mb"] = s.rssMB
	r.Metrics["space_amp"] = amp
	for name, v := range layerMetrics(s.before, s.after, s.p, s.dirtyMax) {
		r.Metrics[name] = v
	}
	for k, smp := range s.p.lat {
		if len(smp.ns) == 0 {
			continue
		}
		p, us := smp.topPercentile()
		r.Timings[kindNames[k]] = timing{Samples: len(smp.ns), TopPercentile: p, TopUS: us}
	}
	return nil
}

// runInProcess is a whole in-memory workload: oltp-mem, temporal-read
// and served.
func runInProcess(cfg runConfig) (*result, error) {
	s := newSession(cfg, "", nil)
	defer func() { _ = s.close() }() // error paths only; the success path checks close below
	if err := s.setup(); err != nil {
		return nil, err
	}
	if err := s.measure(); err != nil {
		return nil, err
	}
	if cfg.trace && s.spec.served {
		if err := s.openLoop(); err != nil {
			return nil, err
		}
	}
	s.verify()
	if err := s.fill(); err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := s.ladder(); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

func traceFile(cfg runConfig) string {
	return filepath.Join(cfg.workDir, "trace-"+cfg.workload+".json")
}
