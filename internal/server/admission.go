package server

import (
	"fmt"

	"repro/internal/server/wire"
)

// admit decides whether a write may proceed: it sheds while the WAL
// backlog is at or over ShedWALBacklogBytes. The gauge is one lock-free
// read (db.DB.WALBacklogBytes), so every write reads it afresh. A shed
// returns the typed retryable response BEFORE the write has any effect:
// shedding never loses an acknowledged operation, it only refuses
// unstarted ones.
//
// Reads are never shed — they cost no WAL work, and serving them during
// overload is the point of having the history.
func (s *Server) admit() []byte {
	limit := s.cfg.ShedWALBacklogBytes
	if limit <= 0 {
		return nil
	}
	backlog := s.db.WALBacklogBytes()
	if int64(backlog) < limit {
		return nil
	}
	s.shed.Inc()
	return errResp(wire.CodeOverloaded, fmt.Sprintf("WAL backlog %d bytes at watermark %d; retry later", backlog, limit))
}
