package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/db"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// durable-paged runs in a child process so that it can be killed. The
// child streams every acknowledged version to the parent as it is
// acknowledged; after the measured phase it checkpoints and commits
// two-key transactions from one client until the parent, having seen
// the tail it asked for, sends SIGKILL. The parent then times db.Open
// on the directory and checks that every acknowledged commit is
// readable at its commit time and that no unacknowledged transaction is
// half-applied.
//
// SIGKILL keeps the operating system's cache, so this proves recovery
// from a crash of the process, not from power loss; torn-write fidelity
// stays with the repository's own fault-injection sweeps.
// childEnv marks the re-executed process as the durable child, which
// lets the tests' binary stand in for the bench's (see TestMain).
const childEnv = "TSB_BENCH_CHILD"

const killNote = "kill -9 keeps the OS cache: this proves crash recovery, not power loss; torn writes are covered by the in-repo sweeps"

// Child-to-parent lines on the child's standard output:
//
//	A <key index> <seq> <commit time>   one acknowledged version
//	J <json>                            the child's result, after its quiescent check
//	T                                   the tail begins; acks now come in pairs, one pair per commit
func runDurableChild(cfg runConfig, dataDir string) error {
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	var mu sync.Mutex
	ack := func(idx int, seq uint32, ct record.Timestamp) {
		mu.Lock()
		fmt.Fprintf(out, "A %d %d %d\n", idx, seq, ct)
		mu.Unlock()
	}
	s := newSession(cfg, dataDir, ack)
	if err := s.setup(); err != nil {
		return err
	}
	if err := s.measure(); err != nil {
		return err
	}
	s.verify()
	// A final checkpoint truncates the log at a fixed point, so space_amp
	// does not depend on where the background checkpointer happened to be.
	if err := s.d.Checkpoint(); err != nil {
		return err
	}
	if err := s.fill(); err != nil {
		return err
	}
	blob, err := json.Marshal(s.res)
	if err != nil {
		return err
	}
	mu.Lock()
	fmt.Fprintf(out, "J %s\nT\n", blob)
	err = out.Flush()
	mu.Unlock()
	if err != nil {
		return err
	}
	// The tail: one client, two-key transactions, each acknowledged pair
	// flushed at once, until killed.
	r := rand.New(rand.NewPCG(cfg.seed, 0x7461696c))
	var v1, v2 [valueLen]byte
	n := s.m.n
	for {
		k1 := hot80(r, n)
		k2 := (k1 + 1 + r.IntN(n-1)) % n
		s1, s2 := uint32(s.m.versions(k1)), uint32(s.m.versions(k2))
		fillValue(v1[:], k1, s1)
		fillValue(v2[:], k2, s2)
		var tx *txn.Txn
		err := s.d.Update(func(x *txn.Txn) error {
			tx = x
			if err := x.Put(s.m.key(k1), v1[:]); err != nil {
				return err
			}
			return x.Put(s.m.key(k2), v2[:])
		})
		if err != nil {
			return fmt.Errorf("tail commit: %w", err)
		}
		s.m.ack(k1, tx.CommitTime())
		s.m.ack(k2, tx.CommitTime())
		mu.Lock()
		fmt.Fprintf(out, "A %d %d %d\nA %d %d %d\n", k1, s1, tx.CommitTime(), k2, s2, tx.CommitTime())
		err = out.Flush()
		mu.Unlock()
		if err != nil {
			return err // the parent is gone
		}
	}
}

// runDurable is the parent side.
func runDurable(cfg runConfig) (*result, error) {
	dataDir := filepath.Join(cfg.workDir, fmt.Sprintf("durable-%d", os.Getpid()))
	mustMkdir(cfg.workDir)
	defer os.RemoveAll(dataDir)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := exec.Command(exe, "-child-dir", dataDir, "-workload", cfg.workload,
		"-seed", strconv.FormatUint(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		"-trace", strconv.Itoa(b2i(cfg.trace)), "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-out", cfg.workDir)
	child.Env = append(os.Environ(), childEnv+"=1")
	child.Stderr = os.Stderr
	pipe, err := child.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := child.Start(); err != nil {
		return nil, err
	}
	killed, waited := false, false
	kill := func() {
		if !killed {
			killed = true
			_ = child.Process.Signal(syscall.SIGKILL) // it may have exited already; Wait reports how
		}
	}
	defer func() { // error paths: never leave the child running
		if !waited {
			kill()
			_ = child.Wait()
		}
	}()

	spec, _ := specByName(cfg.workload)
	n := scaled(spec.baseKeys, cfg.scale)
	tailWant := scaled(baseTailCommits, cfg.scale)
	m := newModel(n, false)
	var res *result
	tail, tailAcks := false, 0
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "A "):
			var idx int
			var seq uint32
			var ct uint64
			if _, err := fmt.Sscanf(line, "A %d %d %d", &idx, &seq, &ct); err != nil || idx < 0 || idx >= n {
				return nil, fmt.Errorf("child sent a bad ack line %q", line)
			}
			if int(seq) != m.versions(idx) {
				return nil, fmt.Errorf("child acknowledged key %d seq %d, expected seq %d", idx, seq, m.versions(idx))
			}
			m.ack(idx, record.Timestamp(ct))
			if tail {
				if tailAcks++; tailAcks == 2*tailWant {
					kill() // mid-stream: the child is committing the next pair right now
				}
			}
		case strings.HasPrefix(line, "J "):
			res = new(result)
			if err := json.Unmarshal([]byte(line[2:]), res); err != nil {
				return nil, fmt.Errorf("child result: %w", err)
			}
		case line == "T":
			tail = true
		}
	}
	werr := child.Wait()
	waited = true
	if !killed || res == nil {
		return nil, fmt.Errorf("durable child ended before it was killed: %v", werr)
	}

	// What recovery will have to read, measured before it runs.
	var tailBytes, frames float64
	segs, err := wal.Segments(dataDir)
	if err != nil {
		return nil, err
	}
	for _, seg := range segs {
		if info, err := os.Stat(seg.Path); err == nil {
			tailBytes += float64(info.Size())
		}
		if _, _, err := wal.ReplayFile(seg.Path, 0, func(uint64, txn.CommitRecord) error { frames++; return nil }); err != nil {
			return nil, fmt.Errorf("counting log frames: %w", err)
		}
	}

	t0 := time.Now()
	d, err := db.Open(spec.config(dataDir, cfg.scale, 8))
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recovery := time.Since(t0)

	checks, failed, errs := verifyRecovered(d, m)
	if err := d.Close(); err != nil {
		return nil, err
	}
	res.Attempted += checks
	res.Failed += failed
	res.Errors = append(res.Errors, errs...)
	res.Metrics["recovery.open_s"] = recovery.Seconds()
	res.Metrics["recovery.frames_replayed"] = frames
	res.Metrics["recovery.wal_tail_bytes"] = tailBytes
	res.Notes = append(res.Notes, killNote,
		fmt.Sprintf("killed after %d tail commits; recovery took %.4f s over %g log frames", tailAcks/2, recovery.Seconds(), frames))

	if cfg.trace {
		s := newSession(cfg, dataDir, nil)
		s.res = res
		if err := s.ladder(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verifyRecovered checks the reopened database against every
// acknowledgement the parent received: each key's history must start
// with exactly its acknowledged versions, and any version beyond them
// must belong to a whole two-key tail transaction — both keys or
// neither.
func verifyRecovered(d *db.DB, m *model) (checks, failed uint64, kept []string) {
	checks, extra, errs := verifyHistories(d, m)
	unacked := map[record.Timestamp]int{}
	for _, v := range extra {
		unacked[v.Time]++
	}
	for ct, keys := range unacked {
		checks++
		if keys != 2 {
			errs = append(errs, fmt.Errorf("unacknowledged commit at time %d is half-applied: %d of 2 keys", ct, keys))
		}
	}
	checks++
	if err := d.CheckInvariants(); err != nil {
		errs = append(errs, fmt.Errorf("CheckInvariants: %w", err))
	}
	for _, err := range errs[:min(len(errs), maxKeptErrors)] {
		kept = append(kept, "after recovery: "+err.Error())
	}
	return checks, uint64(len(errs)), kept
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
