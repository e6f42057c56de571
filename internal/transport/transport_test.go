package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

func mixedSchema() *wire.Schema {
	return &wire.Schema{
		Name: "mixed",
		Fields: []wire.FieldSpec{
			{Name: "node", Type: abi.Int, Count: 1},
			{Name: "timestamp", Type: abi.Double, Count: 1},
			{Name: "values", Type: abi.Double, Count: 4},
		},
	}
}

func TestWriteReadSingleFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	recs := make([]*native.Record, 3)
	for i := range recs {
		recs[i] = native.New(f)
		native.FillDeterministic(recs[i], int64(i))
		if err := w.WriteRecord(f, recs[i].Buf); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := range recs {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !wire.SameLayout(m.Format, f) {
			t.Fatalf("record %d: format layout differs", i)
		}
		if string(m.Data) != string(recs[i].Buf) {
			t.Errorf("record %d: data differs (native bytes must travel unmodified)", i)
		}
	}
	if _, err := r.ReadMessage(); err != io.EOF {
		t.Errorf("after all records: %v, want EOF", err)
	}
}

func TestMetaSentOncePerFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	afterFirst := buf.Len()
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	secondCost := buf.Len() - afterFirst
	if secondCost != WireSize(f) {
		t.Errorf("second record cost %d bytes, want %d (no repeated meta)", secondCost, WireSize(f))
	}
	if afterFirst <= secondCost {
		t.Error("first record did not carry meta")
	}
}

func TestMultipleFormatsInterleaved(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f1 := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	s2 := &wire.Schema{Name: "other", Fields: []wire.FieldSpec{{Name: "x", Type: abi.Int, Count: 2}}}
	f2 := wire.MustLayout(s2, &abi.SparcV8)
	r1, r2 := native.New(f1), native.New(f2)
	native.FillDeterministic(r1, 1)
	native.FillDeterministic(r2, 2)
	for _, step := range []struct {
		f *wire.Format
		r *native.Record
	}{{f1, r1}, {f2, r2}, {f1, r1}, {f2, r2}} {
		if err := w.WriteRecord(step.f, step.r.Buf); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	wantNames := []string{"mixed", "other", "mixed", "other"}
	for i, want := range wantNames {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if m.Format.Name != want {
			t.Errorf("message %d: format %q, want %q", i, m.Format.Name, want)
		}
	}
	if r.formats.Len() != 2 {
		t.Errorf("reader learned %d formats, want 2", r.formats.Len())
	}
}

// TestAlternatingFormatsStreamBytes pins the exact stream a writer
// emits when two formats alternate — A, B, A, B, and once more with
// batching — against frames assembled by hand from the frame layout:
// each meta goes out exactly once, before its format's first record, and
// the sent-format memo in ensureFormat (which every switch misses and
// every repeat hits) changes no byte.
func TestAlternatingFormatsStreamBytes(t *testing.T) {
	fa := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	fb := wire.MustLayout(&wire.Schema{Name: "other", Fields: []wire.FieldSpec{{Name: "x", Type: abi.Int, Count: 2}}}, &abi.X86)
	// A second pointer to A's layout shares its stream ID and its meta.
	fa2 := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	ra, rb := native.New(fa), native.New(fb)
	native.FillDeterministic(ra, 1)
	native.FillDeterministic(rb, 2)
	frame := func(kind byte, id uint32, body ...[]byte) []byte {
		payload := bytes.Join(body, nil)
		out := []byte{0x50, 0x42, kind}
		out = wire.AppendBeUint32(out, id)
		out = wire.AppendBeUint32(out, uint32(len(payload)))
		return append(out, payload...)
	}
	metaA, metaB := frame(FrameMeta, 1, wire.EncodeMeta(fa)), frame(FrameMeta, 2, wire.EncodeMeta(fb))
	dataA, dataB := frame(FrameData, 1, ra.Buf), frame(FrameData, 2, rb.Buf)
	type step struct {
		f   *wire.Format
		rec []byte
	}
	a, b, a2 := step{fa, ra.Buf}, step{fb, rb.Buf}, step{fa2, ra.Buf}
	for _, c := range []struct {
		name  string
		batch int
		steps []step
		want  [][]byte
	}{
		{"A B A B", 0, []step{a, b, a, b}, [][]byte{metaA, dataA, metaB, dataB, dataA, dataB}},
		{"A A B B A A'", 0, []step{a, a, b, b, a, a2}, [][]byte{metaA, dataA, dataA, metaB, dataB, dataB, dataA, dataA}},
		{"batched A A B A A' A", 1 << 16, []step{a, a, b, a, a2, a}, [][]byte{
			metaA, frame(FrameBatch, 1, ra.Buf, ra.Buf), metaB, dataB, frame(FrameBatch, 1, ra.Buf, ra.Buf, ra.Buf)}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if c.batch > 0 {
			if err := w.SetBatching(c.batch, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range c.steps {
			if err := w.WriteRecord(st.f, st.rec); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := bytes.Join(c.want, nil); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: stream is\n% x\nwant\n% x", c.name, buf.Bytes(), want)
		}
	}
}

func TestWriteRecordSizeMismatch(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	if err := w.WriteRecord(f, make([]byte, f.Size-1)); err == nil {
		t.Error("short record accepted")
	}
	if err := w.WriteRecord(f, make([]byte, f.Size+1)); err == nil {
		t.Error("long record accepted")
	}
}

func TestReaderRejectsCorruptStream(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", []byte{0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0}},
		{"unknown kind", []byte{0x50, 0x42, 9, 0, 0, 0, 1, 0, 0, 0, 0}},
		{"data before meta", []byte{0x50, 0x42, 2, 0, 0, 0, 1, 0, 0, 0, 0}},
		{"truncated header", []byte{0x50, 0x42, 2}},
		{"oversized payload", []byte{0x50, 0x42, 2, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(c.data))
			if _, err := r.ReadMessage(); err == nil {
				t.Errorf("accepted %s", c.name)
			}
		})
	}
}

func TestReaderRejectsSizeMismatchedData(t *testing.T) {
	// Hand-build: valid meta for format, then data frame of wrong size.
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	meta := wire.EncodeMeta(f)
	var buf bytes.Buffer
	hdr := make([]byte, frameHeaderSize)
	putHeader(hdr, FrameMeta, 1, len(meta))
	buf.Write(hdr)
	buf.Write(meta)
	putHeader(hdr, FrameData, 1, 4)
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3, 4})
	if _, err := NewReader(&buf).ReadMessage(); err == nil {
		t.Error("size-mismatched data frame accepted")
	}
}

func TestOverTCPLoopback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()

	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	src := native.New(f)
	native.FillDeterministic(src, 42)

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		w := NewWriter(conn)
		for i := 0; i < 10; i++ {
			if err := w.WriteRecord(f, src.Buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := NewReader(conn)
	for i := 0; i < 10; i++ {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(m.Data) != string(src.Buf) {
			t.Fatalf("record %d corrupted in transit", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMessageDataAliasesReceiveBuffer(t *testing.T) {
	// Documented zero-copy contract: Data is valid until the next read.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	r1, r2 := native.New(f), native.New(f)
	native.FillDeterministic(r1, 1)
	native.FillDeterministic(r2, 2)
	if err := w.WriteRecord(f, r1.Buf); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(f, r2.Buf); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	m1, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	first := string(m1.Data)
	if _, err := r.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if string(m1.Data) == first {
		t.Log("buffer was reallocated (acceptable); zero-copy aliasing not observable here")
	}
}
