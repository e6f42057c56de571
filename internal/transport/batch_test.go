package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func smallSchema() *wire.Schema {
	return &wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "value", Type: abi.Double, Count: 1},
		},
	}
}

// makeRecords builds n deterministic records of format f.
func makeRecords(f *wire.Format, n int) []*native.Record {
	recs := make([]*native.Record, n)
	for i := range recs {
		recs[i] = native.New(f)
		native.FillDeterministic(recs[i], int64(i))
	}
	return recs
}

// readAll drains every data message from the stream, copying payloads
// (batch records alias the receive buffer).
func readAll(t *testing.T, r *Reader) []Message {
	t.Helper()
	var out []Message
	for {
		var m Message
		err := r.ReadMessageInto(&m)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		m.Data = append([]byte(nil), m.Data...)
		out = append(out, m)
	}
}

func TestWriteBatchRoundTrip(t *testing.T) {
	for _, sums := range []bool{false, true} {
		name := "plain"
		if sums {
			name = "checksummed"
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.SetChecksums(sums)
			f := wire.MustLayout(smallSchema(), &abi.X86x64)
			recs := makeRecords(f, 5)
			images := make([][]byte, len(recs))
			for i, r := range recs {
				images[i] = r.Buf
			}
			if err := w.WriteBatch(f, images); err != nil {
				t.Fatal(err)
			}
			wireLen := buf.Len()

			r := NewReader(&buf)
			defer r.Close()
			got := readAll(t, r)
			if len(got) != len(recs) {
				t.Fatalf("got %d records, want %d", len(got), len(recs))
			}
			for i, m := range got {
				if !m.Batched {
					t.Errorf("record %d: Batched=false, want true", i)
				}
				if string(m.Data) != string(recs[i].Buf) {
					t.Errorf("record %d: data differs", i)
				}
				if i == 0 && m.WireBytes != wireLen {
					t.Errorf("first record WireBytes=%d, want whole stream %d", m.WireBytes, wireLen)
				}
				if i > 0 && m.WireBytes != 0 {
					t.Errorf("record %d: WireBytes=%d, want 0 (frame accounted on first)", i, m.WireBytes)
				}
			}
		})
	}
}

func TestWriteBatchSingleRecordIsDataFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewMetrics(telemetry.NewRegistry())
	w.SetMetrics(m)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	rec := native.New(f)
	if err := w.WriteBatch(f, [][]byte{rec.Buf}); err != nil {
		t.Fatal(err)
	}
	if got := m.BatchFramesWritten.Value(); got != 0 {
		t.Errorf("BatchFramesWritten=%d, want 0 (single record travels as plain data)", got)
	}
	r := NewReader(&buf)
	defer r.Close()
	msg, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Batched {
		t.Error("single-record batch delivered with Batched=true")
	}
}

func TestCoalescingFlushOnSize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewMetrics(telemetry.NewRegistry())
	w.SetMetrics(m)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	if err := w.SetBatching(3*f.Size, 0); err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(f, 7)
	for _, rec := range recs {
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
	}
	// 7 records at 3 per batch: two full batches flushed by size, one
	// record still pending and invisible.
	if got := m.BatchFramesWritten.Value(); got != 2 {
		t.Errorf("BatchFramesWritten=%d, want 2 before Flush", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The final single pending record must go out as a plain data frame.
	if got := m.BatchFramesWritten.Value(); got != 2 {
		t.Errorf("BatchFramesWritten=%d after Flush, want 2 (lone record is a data frame)", got)
	}
	if got := m.BatchRecordsWritten.Value(); got != 6 {
		t.Errorf("BatchRecordsWritten=%d, want 6", got)
	}

	r := NewReader(&buf)
	defer r.Close()
	got := readAll(t, r)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i, msg := range got {
		if string(msg.Data) != string(recs[i].Buf) {
			t.Errorf("record %d: data differs after coalesced delivery", i)
		}
	}
	if got[len(got)-1].Batched {
		t.Error("final lone record delivered Batched")
	}
}

func TestCoalescingFlushOnFormatChange(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewMetrics(telemetry.NewRegistry())
	w.SetMetrics(m)
	f1 := wire.MustLayout(smallSchema(), &abi.X86x64)
	s2 := &wire.Schema{Name: "other", Fields: []wire.FieldSpec{{Name: "x", Type: abi.Int, Count: 2}}}
	f2 := wire.MustLayout(s2, &abi.X86x64)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	r1, r2 := native.New(f1), native.New(f2)
	// Two records of f1 buffer; the f2 record must push them out first so
	// delivery order matches write order.
	for _, step := range []struct {
		f   *wire.Format
		rec *native.Record
	}{{f1, r1}, {f1, r1}, {f2, r2}} {
		if err := w.WriteRecord(step.f, step.rec.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.BatchFramesWritten.Value(); got != 1 {
		t.Errorf("BatchFramesWritten=%d, want 1 (format change flushes)", got)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	defer r.Close()
	got := readAll(t, r)
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	wantFmt := []string{"tick", "tick", "other"}
	for i, msg := range got {
		if msg.Format.Name != wantFmt[i] {
			t.Errorf("record %d: format %q, want %q (order must survive coalescing)", i, msg.Format.Name, wantFmt[i])
		}
	}
}

func TestCoalescingFlushOnAge(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := NewMetrics(telemetry.NewRegistry())
	w.SetMetrics(m)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	if err := w.SetBatching(1<<20, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec := native.New(f)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	// The age check runs at write time: this second write sees the
	// buffered record over its delay and flushes both together.
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	if got := m.BatchFramesWritten.Value(); got != 1 {
		t.Errorf("BatchFramesWritten=%d, want 1 (age-triggered flush)", got)
	}
}

func TestSetBatchingOffFlushesPending(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	rec := native.New(f)
	for i := 0; i < 2; i++ {
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
	}
	before := buf.Len()
	if err := w.SetBatching(0, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= before {
		t.Error("disabling batching did not flush pending records")
	}
	r := NewReader(&buf)
	defer r.Close()
	if got := readAll(t, r); len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func TestFlushHookReportsWindow(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	if err := w.SetBatching(1<<16, 0); err != nil {
		t.Fatal(err)
	}
	var hookRecords, hookBytes int
	var hookStart, hookEnd time.Time
	w.SetFlushHook(func(records, payloadBytes int, start, end time.Time) {
		hookRecords, hookBytes = records, payloadBytes
		hookStart, hookEnd = start, end
	})
	rec := native.New(f)
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if hookRecords != 3 || hookBytes != 3*f.Size {
		t.Errorf("hook saw %d records / %d bytes, want 3 / %d", hookRecords, hookBytes, 3*f.Size)
	}
	if hookStart.Before(t0) || hookEnd.Before(hookStart) {
		t.Errorf("hook window [%v, %v] not within the write span", hookStart, hookEnd)
	}
}

func TestBatchPayloadNotMultipleIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	rec := native.New(f)
	// Learn the format via a legitimate record first.
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	// Then append a hand-built batch frame whose payload is not a
	// multiple of the record size.
	bad := make([]byte, f.Size+1)
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], FrameBatch, 1, len(bad))
	buf.Write(hdr[:])
	buf.Write(bad)

	r := NewReader(&buf)
	defer r.Close()
	if _, err := r.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	_, err := r.ReadMessage()
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("truncated batch: err=%v, want ErrCorruptFrame", err)
	}
}

func TestEmptyBatchPayloadIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	rec := native.New(f)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	putHeader(hdr[:], FrameBatch, 1, 0)
	buf.Write(hdr[:])

	r := NewReader(&buf)
	defer r.Close()
	if _, err := r.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	_, err := r.ReadMessage()
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("empty batch: err=%v, want ErrCorruptFrame", err)
	}
}

func TestBatchReadMetrics(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	recs := makeRecords(f, 4)
	images := make([][]byte, len(recs))
	for i, r := range recs {
		images[i] = r.Buf
	}
	if err := w.WriteBatch(f, images); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	defer r.Close()
	m := NewMetrics(telemetry.NewRegistry())
	r.SetMetrics(m)
	readAll(t, r)
	if got := m.BatchFramesRead.Value(); got != 1 {
		t.Errorf("BatchFramesRead=%d, want 1", got)
	}
	if got := m.BatchRecordsRead.Value(); got != 4 {
		t.Errorf("BatchRecordsRead=%d, want 4", got)
	}
	if got := m.BatchBytesRead.Value(); got != int64(4*f.Size) {
		t.Errorf("BatchBytesRead=%d, want %d", got, 4*f.Size)
	}
}

func TestBatchArrivalShared(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	recs := makeRecords(f, 3)
	images := make([][]byte, len(recs))
	for i, r := range recs {
		images[i] = r.Buf
	}
	if err := w.WriteBatch(f, images); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	defer r.Close()
	r.SetArrivalStamps(true)
	got := readAll(t, r)
	if len(got) != 3 {
		t.Fatalf("got %d records, want 3", len(got))
	}
	if got[0].Arrival.IsZero() {
		t.Fatal("arrival not stamped")
	}
	for i := 1; i < len(got); i++ {
		if !got[i].Arrival.Equal(got[0].Arrival) {
			t.Errorf("record %d: arrival %v differs from the frame's %v", i, got[i].Arrival, got[0].Arrival)
		}
	}
}

func TestReaderCloseAndReset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	rec := native.New(f)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	r := NewReader(bytes.NewReader(stream))
	if _, err := r.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("second Close: %v, want nil (idempotent)", err)
	}
	if _, err := r.ReadMessage(); err == nil {
		t.Error("read on closed reader succeeded")
	}
	// Reset re-arms the same reader over a fresh stream.
	r.Reset(bytes.NewReader(stream))
	m, err := r.ReadMessage()
	if err != nil {
		t.Fatalf("read after Reset: %v", err)
	}
	if string(m.Data) != string(rec.Buf) {
		t.Error("record read after Reset differs")
	}
	r.Close()
}

func TestMetaCacheSharesFormatPointers(t *testing.T) {
	f := wire.MustLayout(smallSchema(), &abi.X86x64)
	rec := native.New(f)
	stream := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cache := NewMetaCache()
	read := func(stream []byte) *wire.Format {
		r := NewReader(bytes.NewReader(stream))
		defer r.Close()
		r.SetMetaCache(cache)
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		return m.Format
	}
	f1 := read(stream())
	f2 := read(stream())
	if f1 != f2 {
		t.Error("identical meta on two streams decoded to distinct *wire.Format (cache must converge pointers)")
	}
}
