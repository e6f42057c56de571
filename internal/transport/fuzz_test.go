package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// fuzzStream builds a valid wire stream carrying n records of the mixed
// format, optionally checksummed, for use as a fuzz seed.
func fuzzStream(tb testing.TB, n int, sums bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetChecksums(sums)
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	for i := 0; i < n; i++ {
		rec := native.New(f)
		native.FillDeterministic(rec, int64(i))
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// goldenStream returns one of the committed streams of the relay's golden
// test (internal/relay/golden_test.go): two sender ABIs, nested and
// trace-extended formats, batch frames, checksums, relay-renumbered IDs.
func goldenStream(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "relay", "testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzReadFrame feeds arbitrary bytes to the frame parser.  Whatever
// comes in, FrameReader.Next must not panic, must never return a payload
// larger than its bounds, and any frame it accepts must survive a
// write-then-reread round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	f.Add(goldenStream(f, "producer1.pbio"))
	f.Add(goldenStream(f, "consumer.pbio"))
	// A hand-built frame with a corrupted length field.
	bad := fuzzStream(f, 1, false)
	if len(bad) > 10 {
		bad[7] ^= 0xFF
	}
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{'P', 'B'})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data)).Next()
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrPeerGone) && err != io.EOF {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(fr.Payload) > maxPayload {
			t.Fatalf("accepted %d-byte payload", len(fr.Payload))
		}
		// Body() on an accepted frame must not panic; a checksum
		// mismatch is the only permitted failure.
		if _, err := fr.Body(); err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("Body: untyped error: %v", err)
		}
		// Round trip: re-serialize and re-read; the frame must be
		// byte-identical.
		var out bytes.Buffer
		if _, err := NewFrameWriter(&out).Write(fr.Kind, fr.FormatID, false, fr.Payload); err != nil {
			t.Fatalf("FrameWriter.Write on accepted frame: %v", err)
		}
		fr2, err := NewFrameReader(&out).Next()
		if err != nil {
			t.Fatalf("reread of written frame: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.FormatID != fr.FormatID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip changed frame: %+v -> %+v", fr, fr2)
		}
	})
}

// FuzzReadMessage feeds arbitrary bytes to the full message reader.  The
// invariants: no panic, every error is one of the typed protocol errors
// (or io.EOF), and every delivered message has a non-nil format whose
// size matches the record bytes exactly — a corrupt stream may fail, but
// it must never surface a malformed record as valid.
func FuzzReadMessage(f *testing.F) {
	f.Add(goldenStream(f, "producer1.pbio"))
	f.Add(goldenStream(f, "producer2.pbio"))
	f.Add(fuzzStream(f, 2, true))
	// Seeds with single-byte corruptions at interesting offsets: kind,
	// format ID, length, first payload byte.
	for _, off := range []int{2, 5, 9, 12} {
		s := fuzzStream(f, 2, true)
		if off < len(s) {
			s[off] ^= 0x41
		}
		f.Add(s)
	}
	f.Add([]byte{})
	// Format IDs are the peer's to choose: sparse, maximal and reserved
	// ones, bound out of order, rebound, and used before they are bound.
	tf := tableFormat("t", &abi.SparcV8)
	for _, ids := range [][]uint32{{5000, 1}, {math.MaxUint32, math.MaxUint32 - 1}, {0}, {7, 7, 70000, 70000}} {
		var s []byte
		for _, id := range ids {
			s = append(s, metaFrame(id, tf)...)
			s = append(s, dataFrame(id, tf)...)
			s = append(s, dataFrame(id+1, tf)...)
		}
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			m, err := r.ReadMessage()
			if err != nil {
				if err == io.EOF {
					return
				}
				if !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, ErrPeerGone) &&
					!errors.Is(err, ErrProtocol) && !errors.Is(err, ErrFormatUnknown) {
					t.Fatalf("untyped error: %v", err)
				}
				return
			}
			if m.Format == nil {
				t.Fatal("delivered message with nil format")
			}
			if len(m.Data) != m.Format.Size {
				t.Fatalf("delivered %d record bytes for %d-byte format %q",
					len(m.Data), m.Format.Size, m.Format.Name)
			}
		}
	})
}
