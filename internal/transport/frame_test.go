package transport

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// TestFrameCodecAllocs pins the frame codec at zero allocations per frame
// in steady state — the relay's ingest, pump and uplink and both ends of
// every direct stream sit on it.  The two bugs the codec replaced are a
// header on the reader's stack (ReadFrame: 1 alloc/frame) and an iovec
// built per write (WriteFrame: 3 allocs/frame); TestMutations seeds both.
func TestFrameCodecAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 100)
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	for i := 0; i < 4; i++ {
		if _, err := fw.Write(FrameData, uint32(i+1), i%2 == 1, payload); err != nil {
			t.Fatal(err)
		}
	}

	src := bytes.NewReader(nil)
	fr := NewFrameReader(src)
	defer fr.Release()
	pass := func() {
		src.Reset(stream.Bytes())
		for i := 0; i < 4; i++ {
			f, err := fr.Next()
			if err != nil || f.FormatID != uint32(i+1) || len(f.Payload) < len(payload) {
				t.Fatalf("frame %d: id %d, %d payload bytes, err %v", i, f.FormatID, len(f.Payload), err)
			}
		}
		if _, err := fr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	}
	pass() // takes the pooled buffer
	if got := testing.AllocsPerRun(100, pass); got != 0 {
		t.Errorf("FrameReader.Next allocates %.2f per 4-frame pass, want 0", got)
	}

	fw = NewFrameWriter(io.Discard)
	recs := [][]byte{payload, payload, payload}
	write := func() {
		if _, err := fw.Write(FrameData, 7, false, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(FrameBatch, 7, true, recs...); err != nil {
			t.Fatal(err)
		}
	}
	write() // grows the iovec
	if got := testing.AllocsPerRun(100, write); got != 0 {
		t.Errorf("FrameWriter.Write allocates %.2f per two frames, want 0", got)
	}
}

// TestFrameWriterSum: Write with sum set produces the FrameFlagSum layout
// Frame.Body verifies, one part or many.
func TestFrameWriterSum(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if _, err := fw.Write(FrameBatch, 9, true, []byte("ab"), []byte("cd"), []byte("ef")); err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameBatch|FrameFlagSum || f.FormatID != 9 {
		t.Fatalf("frame kind %#x id %d", f.Kind, f.FormatID)
	}
	if want := AppendSum(nil, []byte("abcdef")); !bytes.Equal(f.Payload, want) {
		t.Fatalf("payload % x, want % x", f.Payload, want)
	}
	if body, err := f.Body(); err != nil || string(body) != "abcdef" {
		t.Fatalf("Body = %q, %v", body, err)
	}
}

// writtenFrames writes with w into a buffer and returns the frames.
func writtenFrames(t *testing.T, write func(w *Writer)) []Frame {
	t.Helper()
	var buf bytes.Buffer
	write(NewWriter(&buf))
	var out []Frame
	fr := NewFrameReader(&buf)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Payload = append([]byte(nil), f.Payload...)
		out = append(out, f)
	}
}

// TestWriterDedupesByLayout: format IDs count from 1 in first-sent order
// (0 is never assigned), two *wire.Format of one layout share an ID and
// one meta frame, a different layout gets the next ID.
func TestWriterDedupesByLayout(t *testing.T) {
	a := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	b := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	c := wire.MustLayout(mixedSchema(), &abi.X86)
	frames := writtenFrames(t, func(w *Writer) {
		for _, f := range []*wire.Format{a, b, c, a, b} {
			if err := w.WriteRecord(f, native.New(f).Buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	type kindID struct {
		kind byte
		id   uint32
	}
	want := []kindID{{FrameMeta, 1}, {FrameData, 1}, {FrameData, 1}, {FrameMeta, 2}, {FrameData, 2}, {FrameData, 1}, {FrameData, 1}}
	if len(frames) != len(want) {
		t.Fatalf("wrote %d frames, want %d", len(frames), len(want))
	}
	for i, f := range frames {
		if got := (kindID{f.Kind, f.FormatID}); got != want[i] {
			t.Errorf("frame %d: kind %d id %d, want kind %d id %d", i, got.kind, got.id, want[i].kind, want[i].id)
		}
	}
}

// TestWriterRejectsInvalidFormat: a format is validated on first sight,
// and a refused one puts nothing on the wire.
func TestWriterRejectsInvalidFormat(t *testing.T) {
	bad := &wire.Format{Name: "", Size: 8}
	frames := writtenFrames(t, func(w *Writer) {
		if err := w.WriteRecord(bad, make([]byte, 8)); err == nil {
			t.Error("WriteRecord accepted an invalid format")
		}
		if err := w.WriteMeta(bad); err == nil {
			t.Error("WriteMeta accepted an invalid format")
		}
	})
	if len(frames) != 0 {
		t.Errorf("a refused format left %d frames on the wire", len(frames))
	}
}
