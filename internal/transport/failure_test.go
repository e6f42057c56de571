package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// failAfter is an io.Writer that fails once n bytes have been written.
type failAfter struct {
	n       int
	written int
}

var errInjected = errors.New("injected write failure")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		ok := f.n - f.written
		if ok < 0 {
			ok = 0
		}
		f.written += ok
		return ok, errInjected
	}
	f.written += len(p)
	return len(p), nil
}

func TestWriterPropagatesSinkErrors(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	// Fail at every possible byte boundary of the first record's
	// transmission (meta header, meta, data header, data).
	full := func() int {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}()
	for n := 0; n < full; n += 7 {
		w := NewWriter(&failAfter{n: n})
		err := w.WriteRecord(f, rec.Buf)
		if err == nil {
			t.Fatalf("write succeeded with sink failing at byte %d of %d", n, full)
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("fail at %d: error %v does not wrap the sink error", n, err)
		}
	}
}

// shortReader yields a valid stream prefix then EOF mid-frame.
func TestReaderMidFrameEOFIsError(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must produce either a clean EOF (only at 0
	// bytes or full frames) or a real error — never a record.
	frames := 0
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		m, err := r.ReadMessage()
		switch {
		case err == nil:
			t.Fatalf("cut %d: got a record from a truncated stream", cut)
			_ = m
		case err == io.EOF && cut != 0:
			// EOF is only legitimate at exact frame boundaries; count
			// and verify below.
			frames++
		}
	}
	// The only interior clean-EOF point is right after the meta frame.
	if frames != 1 {
		t.Errorf("clean EOF at %d interior points, want 1 (after the meta frame)", frames)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Kind: FrameMeta, FormatID: 1, Payload: []byte("meta-bytes")},
		{Kind: FrameData, FormatID: 1, Payload: bytes.Repeat([]byte{7}, 1000)},
		{Kind: FrameMetaRef, FormatID: 2, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: FrameData, FormatID: 2, Payload: nil},
	}
	fw := NewFrameWriter(&buf)
	for _, f := range frames {
		if _, err := fw.Write(f.Kind, f.FormatID, false, f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	defer fr.Release()
	for i, want := range frames {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.FormatID != want.FormatID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("end of frames: %v, want EOF", err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{1, 2, 3},
		{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0},          // bad magic
		{0x50, 0x42, 1, 0, 0, 0, 1, 0xFF, 0, 0, 0}, // huge payload
	}
	for i, c := range cases {
		if _, err := NewFrameReader(bytes.NewReader(c)).Next(); err == nil || err == io.EOF {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
}

func TestWriteFrameToFailingSink(t *testing.T) {
	f := Frame{Kind: FrameData, FormatID: 1, Payload: make([]byte, 100)}
	for _, n := range []int{0, 5, 11, 50} {
		if _, err := NewFrameWriter(&failAfter{n: n}).Write(f.Kind, f.FormatID, false, f.Payload); err == nil {
			t.Errorf("FrameWriter.Write succeeded with sink failing at %d", n)
		}
	}
}
