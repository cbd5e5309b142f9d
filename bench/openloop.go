package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/server/client"
)

// openLoop is served's phase B: requests are sent on a fixed schedule
// (openLoopRate per second over all sessions) whether or not earlier
// ones have been answered, pipelined through GetAsync/PutAsync, and each
// is timed from the moment it was due to be sent, so a stall is charged
// to every request queued behind it. On the 2-core box its p99 spread
// 25 % between identical runs, so it feeds per-layer metrics only.
func (s *session) openLoop() error {
	clients := numClients()
	dur := time.Duration(s.cfg.seconds) * time.Second / 2
	perSession := openLoopRate / clients
	interval := time.Second / time.Duration(perSession)
	total := int(dur / interval)

	type outcome struct {
		lat    []uint32 // ns from intended send time
		lagMax time.Duration
		failed uint64
		errs   []string
	}
	outs := make([]outcome, clients)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for c := 0; c < clients; c++ {
		sess, err := s.srv.dial(64)
		if err != nil {
			return err
		}
		stream := newOpStream(s.cfg.seed^0x6f70656e, s.spec.mix, c, clients, s.m.n)
		out := &outs[c]
		out.lat = make([]uint32, 0, total)
		type sent struct {
			o    op
			seq  uint32
			due  time.Time
			call *client.Call
		}
		inflight := make(chan sent, 64) // the session's pipelining window
		wg.Add(2)
		go func() { // generator
			defer wg.Done()
			defer close(inflight)
			next := map[int]uint32{} // next version of each key this session has put
			var val [valueLen]byte
			for i := 0; i < total; i++ {
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				out.lagMax = max(out.lagMax, time.Since(due))
				o := stream.next()
				k := keyOf(o.key)
				var call *client.Call
				var err error
				var seq uint32
				if o.kind == opGet {
					call, err = sess.GetAsync(k, 0)
				} else {
					if _, ok := next[o.key]; !ok {
						next[o.key] = uint32(s.m.versions(o.key))
					}
					seq = next[o.key]
					next[o.key]++
					fillValue(val[:], o.key, seq)
					call, err = sess.PutAsync(k, val[:])
				}
				if err != nil {
					out.failed += uint64(total - i)
					out.errs = append(out.errs, fmt.Sprintf("open loop send: %v", err))
					return
				}
				inflight <- sent{o, seq, due, call}
			}
		}()
		go func() { // receiver: responses arrive in send order
			defer wg.Done()
			for x := range inflight {
				var err error
				if x.o.kind == opGet {
					v, ok, gerr := x.call.Value()
					if err = gerr; err == nil {
						err = s.m.checkPoint(x.o.key, sess.SessionAt(), 0, v, ok)
					}
				} else {
					ct, perr := x.call.Time()
					if err = perr; err == nil {
						s.m.ack(x.o.key, ct)
					}
				}
				if err != nil {
					out.failed++
					if len(out.errs) < maxKeptErrors {
						out.errs = append(out.errs, fmt.Sprintf("open loop %s key %d: %v", kindNames[x.o.kind], x.o.key, err))
					}
					continue
				}
				out.lat = append(out.lat, uint32(min(time.Since(x.due), 1<<32-1)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []uint32
	var lagMax time.Duration
	for _, out := range outs {
		all = append(all, out.lat...)
		lagMax = max(lagMax, out.lagMax)
		s.extraAttempted += uint64(total)
		s.extraFailed += out.failed
		s.extraErrs = append(s.extraErrs, out.errs...)
	}
	slices.Sort(all)
	r := s.res.Metrics
	r["client.open_p50_us"] = percentile(all, 50) / 1e3
	r["client.open_p99_us"] = percentile(all, 99) / 1e3
	r["client.open_rate_achieved"] = float64(len(all)) / elapsed.Seconds()
	r["client.gen_lag_max_ms"] = float64(lagMax) / 1e6
	return nil
}
