package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xab}, 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		var got []byte
		var err error
		got, rest, err = DecodeFrame(rest, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q want %q", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}

	r := bytes.NewReader(buf)
	for i, want := range payloads {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ReadFrame %d: got %q want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("at clean boundary: got %v, want io.EOF", err)
	}
}

func TestFrameComplete(t *testing.T) {
	full := AppendFrame(nil, []byte("hello frame"))
	for cut := 0; cut < len(full); cut++ {
		if FrameComplete(full[:cut]) {
			t.Fatalf("cut=%d: a partial frame reads as complete", cut)
		}
	}
	if !FrameComplete(full) || !FrameComplete(append(full, 0xff)) {
		t.Fatal("a whole frame, alone or followed by more bytes, reads as incomplete")
	}
	if !FrameComplete(AppendFrame(nil, nil)) {
		t.Fatal("an empty frame reads as incomplete")
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, []byte("hello frame"))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut], 0); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut=%d: got %v, want ErrFrameTruncated", cut, err)
		}
		if cut == 0 {
			continue // a clean boundary is io.EOF for the stream reader
		}
		if _, err := ReadFrame(bytes.NewReader(full[:cut]), 0); !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("ReadFrame cut=%d: got %v, want ErrFrameTruncated", cut, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A header claiming more than the caller's limit must fail before
	// the payload is touched — even when those bytes are present.
	buf := AppendFrame(nil, bytes.Repeat([]byte{1}, 100))
	if _, _, err := DecodeFrame(buf, 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("limit 99: got %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf), 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame limit 99: got %v, want ErrFrameTooLarge", err)
	}
	if _, _, err := DecodeFrame(buf, 100); err != nil {
		t.Fatalf("limit 100: %v", err)
	}
	// The absolute bound applies with no caller limit: a corrupt header
	// claiming gigabytes must not trigger an allocation.
	hdr := make([]byte, FrameHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(MaxFramePayload+1))
	if _, err := ReadFrame(bytes.NewReader(hdr), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("absolute bound: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameCRC(t *testing.T) {
	buf := AppendFrame(nil, []byte("checksummed"))
	for i := FrameHeaderSize; i < len(buf); i++ {
		bad := bytes.Clone(buf)
		bad[i] ^= 0x40
		if _, _, err := DecodeFrame(bad, 0); !errors.Is(err, ErrFrameCRC) {
			t.Fatalf("flip %d: got %v, want ErrFrameCRC", i, err)
		}
		if _, err := ReadFrame(bytes.NewReader(bad), 0); !errors.Is(err, ErrFrameCRC) {
			t.Fatalf("ReadFrame flip %d: got %v, want ErrFrameCRC", i, err)
		}
	}
}

// FuzzFrameDecode is the wire-decoder robustness target: whatever bytes
// arrive — torn frames, oversized length headers, corrupted payloads —
// the decoder must return one of the typed errors or a payload that
// re-encodes to exactly the bytes consumed. It must never panic, and
// never read or allocate past the caller's limit.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("seed payload")), 0)
	f.Add(AppendFrame(nil, nil), 64)
	f.Add(AppendFrame(nil, bytes.Repeat([]byte{7}, 300)), 128) // over the caller's limit
	f.Add(AppendFrame(nil, []byte("torn"))[:9], 0)             // mid-payload tear
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, 0)       // huge claimed length
	bad := AppendFrame(nil, []byte("crc"))
	bad[len(bad)-1] ^= 1
	f.Add(bad, 0) // corrupted payload
	f.Add(append(AppendFrame(nil, []byte("first")), 0x01, 0x02), 0)
	f.Add(append(AppendFrame(nil, []byte("zero-filled tail")), make([]byte, 20)...), 0)
	f.Add(AppendFrame(AppendFrame(AppendFrame(nil, []byte("a")), nil), []byte("b")), 0) // empty frame mid-run
	f.Fuzz(func(t *testing.T, data []byte, maxPayload int) {
		if maxPayload < 0 {
			maxPayload = -maxPayload
		}
		maxPayload %= 1 << 16
		payload, rest, err := DecodeFrame(data, maxPayload)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrFrameCRC) {
				t.Fatalf("untyped error: %v", err)
			}
			if len(rest) != len(data) {
				t.Fatalf("error consumed input: %d of %d left", len(rest), len(data))
			}
		} else {
			if maxPayload > 0 && len(payload) > maxPayload {
				t.Fatalf("payload %d over limit %d", len(payload), maxPayload)
			}
			consumed := len(data) - len(rest)
			if !bytes.Equal(AppendFrame(nil, payload), data[:consumed]) {
				t.Fatalf("re-encode mismatch over %d consumed bytes", consumed)
			}
		}
		// The stream reader must agree with the slice decoder, except
		// that a zero-byte stream is a clean EOF.
		sp, serr := ReadFrame(bytes.NewReader(data), maxPayload)
		if err == nil {
			if serr != nil || !bytes.Equal(sp, payload) {
				t.Fatalf("ReadFrame disagrees: %q %v vs %q", sp, serr, payload)
			}
		} else if serr == nil {
			t.Fatalf("ReadFrame succeeded where DecodeFrame failed: %v", err)
		}
		// WalkFrames must be exactly a DecodeFrame loop: the same
		// payloads, clean iff the loop consumed everything. The capacity
		// clip turns any read past len(data) into a panic.
		data = data[:len(data):len(data)]
		var want [][]byte
		left := data
		for len(left) > 0 {
			p, r, derr := DecodeFrame(left, 0)
			if derr != nil || len(p) == 0 {
				break
			}
			want, left = append(want, p), r
		}
		var got [][]byte
		clean, werr := WalkFrames(data, func(p []byte) error {
			got = append(got, p)
			return nil
		})
		if werr != nil || clean != (len(left) == 0) || len(got) != len(want) {
			t.Fatalf("WalkFrames: %d frames clean=%v err=%v, DecodeFrame loop: %d frames, %d bytes left",
				len(got), clean, werr, len(want), len(left))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("WalkFrames: frame %d = %q, want %q", i, got[i], want[i])
			}
		}
	})
}

// TestWalkFrames pins the walker's stopping rule, a zero-length frame
// included: no framed file carries an empty payload, so one ends the
// walk (a zero-filled tail parses as a run of them).
func TestWalkFrames(t *testing.T) {
	frames := func(payloads ...string) []byte {
		var buf []byte
		for _, p := range payloads {
			buf = AppendFrame(buf, []byte(p))
		}
		return buf
	}
	torn := frames("a", "bb", "ccc")
	torn = torn[:len(torn)-1]
	flipped := frames("a", "bb", "ccc")
	flipped[FrameHeaderSize+1+FrameHeaderSize] ^= 1 // first payload byte of "bb"
	for _, tc := range []struct {
		name  string
		buf   []byte
		want  []string
		clean bool
	}{
		{"empty buffer", nil, nil, true},
		{"intact run", frames("a", "bb", "ccc"), []string{"a", "bb", "ccc"}, true},
		{"torn last frame", torn, []string{"a", "bb"}, false},
		{"short trailing header", append(frames("a"), 1, 2, 3), []string{"a"}, false},
		{"corrupt middle frame hides the rest", flipped, []string{"a"}, false},
		{"zero-filled tail", append(frames("a"), make([]byte, 24)...), []string{"a"}, false},
		{"empty frame mid-run", frames("a", "", "b"), []string{"a"}, false},
	} {
		var got []string
		clean, err := WalkFrames(tc.buf, func(p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil || clean != tc.clean || !slices.Equal(got, tc.want) {
			t.Errorf("%s: got %q clean=%v err=%v, want %q clean=%v", tc.name, got, clean, err, tc.want, tc.clean)
		}
	}
	// An error from fn aborts the walk at that frame.
	boom := errors.New("boom")
	calls := 0
	clean, err := WalkFrames(frames("a", "bb", "ccc"), func([]byte) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom || clean || calls != 2 {
		t.Fatalf("fn error: calls=%d clean=%v err=%v", calls, clean, err)
	}
}
