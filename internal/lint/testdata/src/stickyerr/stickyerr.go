// Package stickyerr exercises the sticky-error analyzer: discarded
// Sync/Close/os-mutator/append errors are flagged; `_ =` is a visible
// decision; defer f.Close() is the accepted cleanup idiom but
// defer f.Sync() is not; //tsb:sticky extends the rule to the WAL
// append surface, on a function or on an interface method called
// through the interface; //tsb:allow stickyerr is the escape.
package stickyerr

import "os"

// appendFrame stands in for a WAL append: its error is sticky.
//
//tsb:sticky
func appendFrame(b []byte) error {
	_ = b
	return nil
}

// commitLog stands in for the commit path's durability interface:
// every real append goes through it.
type commitLog interface {
	//tsb:sticky
	AppendBatch(b []byte) error
}

func discards(f *os.File, b []byte, l commitLog) {
	f.Sync()         // want `stickyerr: error result of File\.Sync is discarded`
	f.Close()        // want `stickyerr: error result of File\.Close is discarded`
	os.Remove("x")   // want `stickyerr: error result of os\.Remove is discarded`
	appendFrame(b)   // want `stickyerr: error result of stickyerr\.appendFrame is discarded`
	l.AppendBatch(b) // want `stickyerr: error result of commitLog\.AppendBatch is discarded`
}

func checksOrDiscardsVisibly(f *os.File, b []byte, l commitLog) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := appendFrame(b); err != nil {
		return err
	}
	if err := l.AppendBatch(b); err != nil {
		return err
	}
	_ = f.Close()
	return nil
}

func deferredCleanup(f *os.File) {
	defer f.Close()              // accepted cleanup idiom
	defer os.RemoveAll("fixdir") // accepted cleanup idiom
	defer f.Sync()               // want `stickyerr: error result of File\.Sync is discarded by defer`
}

func allowedDiscard(f *os.File) {
	//tsb:allow stickyerr -- fixture: best-effort flush on a scratch file
	f.Sync()
}
