package server

import (
	"fmt"
	"time"

	"repro/internal/server/wire"
)

// admitVerdict is one cached admission decision: whether writes shed
// right now, and the message naming the gauge that tripped.
type admitVerdict struct {
	shed   bool
	reason string
	when   int64 // UnixNano of the probe that produced it
}

// admit decides whether a write may proceed. Reading the engine gauge
// takes the stats snapshot (shard counts, WAL state), which is far too
// heavy per operation at six-figure op rates — so one verdict is cached
// for AdmissionProbe and every connection shares it. A shed returns the
// typed retryable response BEFORE the write has any effect: shedding
// never loses an acknowledged operation, it only refuses unstarted
// ones.
//
// Reads are never shed — they cost no WAL work, and serving them during
// overload is the point of having the history.
func (s *Server) admit() []byte {
	cfg := s.cfg
	if cfg.ShedWALBacklogBytes <= 0 {
		return nil
	}
	now := time.Now().UnixNano()
	v := s.admitState.Load()
	if v == nil || now-v.when >= int64(cfg.AdmissionProbe) {
		v = s.probe(now)
		s.admitState.Store(v)
	}
	if !v.shed {
		return nil
	}
	s.shed.Inc()
	return errResp(wire.CodeOverloaded, v.reason)
}

func (s *Server) probe(now int64) *admitVerdict {
	backlog := s.db.Stats().WAL.BacklogBytes
	v := &admitVerdict{when: now}
	if int64(backlog) >= s.cfg.ShedWALBacklogBytes {
		v.shed = true
		v.reason = fmt.Sprintf("WAL backlog %d bytes at watermark %d; retry later",
			backlog, s.cfg.ShedWALBacklogBytes)
	}
	return v
}
