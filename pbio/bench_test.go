package pbio

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
)

// BenchmarkWrite measures the full public-API send path (NDR handoff +
// framing) against a discarding sink.
func BenchmarkWrite(b *testing.B) {
	ctx, err := NewContext(WithArch("sparc-v8"))
	if err != nil {
		b.Fatal(err)
	}
	f, err := ctx.Register("mixed",
		F("node", Int), F("timestamp", Double), Array("values", Double, 1245))
	if err != nil {
		b.Fatal(err)
	}
	w := ctx.NewWriter(io.Discard)
	rec := f.NewRecord()
	b.SetBytes(int64(f.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDecode measures the full receive path: framing, meta
// lookup, generated conversion into an owned record.
//
// Every iteration is a cold start — a fresh Reader, bytes.Reader, pooled
// receive buffer and per-stream format table, plus the meta frame's
// decode — and that set-up is where all of its allocs/op come from.
// They are per stream, not per record: the steady state is pinned at 0
// by TestAllocsDCGDecode (alloc_test.go).
func BenchmarkReadDecode(b *testing.B) {
	sctx, err := NewContext(WithArch("sparc-v8"))
	if err != nil {
		b.Fatal(err)
	}
	fields := []FieldSpec{F("node", Int), F("timestamp", Double), Array("values", Double, 1245)}
	sf, err := sctx.Register("mixed", fields...)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	if err := w.Write(sf.NewRecord()); err != nil {
		b.Fatal(err)
	}
	raw := stream.Bytes()

	rctx, err := NewContext(WithArch("x86"))
	if err != nil {
		b.Fatal(err)
	}
	rf, err := rctx.Register("mixed", fields...)
	if err != nil {
		b.Fatal(err)
	}
	out := rf.NewRecord()
	b.SetBytes(int64(rf.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rctx.NewReader(bytes.NewReader(raw))
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeInto(rf, out); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkHomogeneousView measures the zero-copy receive path.
//
// Like BenchmarkReadDecode it opens a new stream every iteration, so its
// allocs/op are the per-stream set-up (Reader, bytes.Reader, receive
// buffer, format table, meta decode), not a hot-path leak: steady-state
// Read + View is pinned at 0 by TestAllocsHomogeneousView and
// TestAllocsBatchedView (alloc_test.go).
func BenchmarkHomogeneousView(b *testing.B) {
	ctx, err := NewContext(WithArch("x86"))
	if err != nil {
		b.Fatal(err)
	}
	fields := []FieldSpec{F("node", Int), Array("values", Double, 1245)}
	f, err := ctx.Register("mixed", fields...)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ctx.NewWriter(&stream).Write(f.NewRecord()); err != nil {
		b.Fatal(err)
	}
	raw := stream.Bytes()
	b.SetBytes(int64(f.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ctx.NewReader(bytes.NewReader(raw))
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		rec, ok, err := m.View(f)
		if err != nil || !ok {
			b.Fatalf("View: %v %v", ok, err)
		}
		_ = rec
		r.Close()
	}
}

// benchWriteTCP streams b.N ~100-byte records through a real loopback
// socket with the peer draining bytes, so the measurement is the send
// path plus actual syscalls — the cost batching exists to amortize.
func benchWriteTCP(b *testing.B, batchRecords int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(WithArch("x86-64"))
	if err != nil {
		b.Fatal(err)
	}
	f, err := ctx.Register("mixed",
		F("node", Int), F("timestamp", Double), Array("values", Double, 11))
	if err != nil {
		b.Fatal(err)
	}
	w := ctx.NewWriter(conn)
	if batchRecords > 0 {
		if err := w.SetBatching(batchRecords*f.Size(), 0); err != nil {
			b.Fatal(err)
		}
	}
	rec := f.NewRecord()
	b.SetBytes(int64(f.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	conn.Close()
	<-done
}

// BenchmarkPerRecordWrite100B frames every ~100-byte record on its own;
// BenchmarkBatchedWrite100B coalesces up to 64 per frame.  The ratio of
// their msgs/sec (1e9 / ns_per_op) is the batching win at the paper's
// smallest message size.
func BenchmarkPerRecordWrite100B(b *testing.B) { benchWriteTCP(b, 0) }
func BenchmarkBatchedWrite100B(b *testing.B)   { benchWriteTCP(b, 64) }

// benchTickFields is the ~100-byte record the batched-read benchmarks
// share with benchWriteTCP.
func benchTickFields() []FieldSpec {
	return []FieldSpec{F("node", Int), F("timestamp", Double), Array("values", Double, 11)}
}

// benchTickStream renders one encoded stream — a meta frame plus either
// one 64-record batch frame or 64 per-record frames — for replay through
// a streamReader, so read benchmarks measure a steady state of data
// frames without rebuilding writers.
func benchTickStream(b *testing.B, sendArch string, batched bool) []byte {
	b.Helper()
	ctx, err := NewContext(WithArch(sendArch))
	if err != nil {
		b.Fatal(err)
	}
	f, err := ctx.Register("tick", benchTickFields()...)
	if err != nil {
		b.Fatal(err)
	}
	var stream bytes.Buffer
	w := ctx.NewWriter(&stream)
	recs := make([]*Record, 64)
	for i := range recs {
		recs[i] = f.NewRecord()
		recs[i].MustSetInt("node", 0, int64(i))
	}
	if batched {
		if err := w.WriteBatch(recs); err != nil {
			b.Fatal(err)
		}
	} else {
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	return stream.Bytes()
}

// BenchmarkPerRecordReadDecode100B is the per-record DCG baseline: every
// ~100-byte record pays its own framing read, plan lookup and Convert
// dispatch.  BenchmarkBatchedReadDecode100B decodes the same records
// from 64-record batch frames with one Read plus one fused ConvertBatch
// per frame; its loop advances b.N by the records decoded, so both
// benchmarks report ns per record and their ratio is the batch-decode
// win.  BenchmarkBatchedViewHomogeneous100B is the zero-copy ceiling at
// the same wire shape: homogeneous batch frames consumed record by
// record through View.
func BenchmarkPerRecordReadDecode100B(b *testing.B) {
	raw := benchTickStream(b, "sparc-v8", false)
	rctx, err := NewContext(WithArch("x86-64"))
	if err != nil {
		b.Fatal(err)
	}
	rf, err := rctx.Register("tick", benchTickFields()...)
	if err != nil {
		b.Fatal(err)
	}
	r := rctx.NewReader(&streamReader{raw: raw})
	defer r.Close()
	out := rf.NewRecord()
	b.SetBytes(int64(rf.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeInto(rf, out); err != nil {
			b.Fatal(err)
		}
	}
}

// roundRobinStream renders a stream of n same-shaped ~100-byte formats
// ("tick0" … "tick<n-1>") written round-robin by a sparc-v8 sender, and
// registers the x86-64 receiver's expected format for each.  The first
// round carries the meta frames; the streamReader replays only the
// rounds after it, so the steady state is data frames of n interleaved
// formats and nothing else.
func roundRobinStream(tb testing.TB, n, rounds int, opts ...Option) (*streamReader, *Context, []*Format) {
	tb.Helper()
	sctx, err := NewContext(WithArch("sparc-v8"))
	if err != nil {
		tb.Fatal(err)
	}
	rctx, err := NewContext(append([]Option{WithArch("x86-64")}, opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	recs := make([]*Record, n)
	expected := make([]*Format, n)
	for i := range recs {
		name := fmt.Sprintf("tick%d", i)
		sf, err := sctx.Register(name, benchTickFields()...)
		if err != nil {
			tb.Fatal(err)
		}
		recs[i] = sf.NewRecord()
		recs[i].MustSetInt("node", 0, int64(i))
		recs[i].MustSetFloat("values", i%11, float64(i)+0.5)
		if expected[i], err = rctx.Register(name, benchTickFields()...); err != nil {
			tb.Fatal(err)
		}
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	loop := 0
	for round := 0; round <= rounds; round++ {
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				tb.Fatal(err)
			}
		}
		if round == 0 {
			loop = stream.Len()
		}
	}
	return &streamReader{raw: stream.Bytes(), loop: loop}, rctx, expected
}

// BenchmarkRoundRobinDecode32 is BenchmarkPerRecordReadDecode100B with
// the same record arriving as 32 interleaved formats: what a record
// costs when the one before it was of a different format.
func BenchmarkRoundRobinDecode32(b *testing.B) {
	const n = 32
	src, rctx, expected := roundRobinStream(b, n, 32)
	r := rctx.NewReader(src)
	defer r.Close()
	outs := make([]*Record, n)
	for i, rf := range expected {
		outs[i] = rf.NewRecord()
		m, err := r.Read() // first round: meta, first sight of each format pair
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeInto(rf, outs[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(expected[0].Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeInto(expected[i%n], outs[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerRecordDecodeFromBatch100B is the PR-5 status quo: batch
// frames on the wire, but every record still decoded through its own
// Read + DecodeInto dispatch.  The gap to BenchmarkBatchedReadDecode100B
// is what the fused batch program buys on top of frame coalescing.
func BenchmarkPerRecordDecodeFromBatch100B(b *testing.B) {
	raw := benchTickStream(b, "sparc-v8", true)
	rctx, err := NewContext(WithArch("x86-64"))
	if err != nil {
		b.Fatal(err)
	}
	rf, err := rctx.Register("tick", benchTickFields()...)
	if err != nil {
		b.Fatal(err)
	}
	r := rctx.NewReader(&streamReader{raw: raw})
	defer r.Close()
	out := rf.NewRecord()
	b.SetBytes(int64(rf.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		if err := m.DecodeInto(rf, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchedReadDecode100B(b *testing.B) {
	raw := benchTickStream(b, "sparc-v8", true)
	rctx, err := NewContext(WithArch("x86-64"))
	if err != nil {
		b.Fatal(err)
	}
	rf, err := rctx.Register("tick", benchTickFields()...)
	if err != nil {
		b.Fatal(err)
	}
	r := rctx.NewReader(&streamReader{raw: raw})
	defer r.Close()
	rb := rf.NewRecordBatch()
	b.SetBytes(int64(rf.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.DecodeBatch(rf, rb)
		if err != nil {
			b.Fatal(err)
		}
		i += n
	}
}

func BenchmarkBatchedViewHomogeneous100B(b *testing.B) {
	raw := benchTickStream(b, "x86-64", true)
	rctx, err := NewContext(WithArch("x86-64"))
	if err != nil {
		b.Fatal(err)
	}
	rf, err := rctx.Register("tick", benchTickFields()...)
	if err != nil {
		b.Fatal(err)
	}
	r := rctx.NewReader(&streamReader{raw: raw})
	defer r.Close()
	b.SetBytes(int64(rf.Size()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		rec, ok, err := m.View(rf)
		if err != nil || !ok {
			b.Fatalf("View: %v %v", ok, err)
		}
		_ = rec
	}
}

// benchMixedFields is the benchmark harness's 100 B mixed record
// (internal/bench MixedSchema(7)).
var benchMixedFields = []FieldSpec{
	F("node", Int), F("timestamp", Double), F("iter", Long), Array("tag", Char, 16),
	F("residual", Float), F("flags", UInt), Array("values", Double, 7),
}

func benchMixedRecord(b *testing.B, arch string) *Record {
	b.Helper()
	ctx, err := NewContext(WithArch(arch))
	if err != nil {
		b.Fatal(err)
	}
	f, err := ctx.Register("mixed", benchMixedFields...)
	if err != nil {
		b.Fatal(err)
	}
	return f.NewRecord()
}

// benchMix64 is splitmix64's finaliser, as benchmark/workload.go derives
// per-record contents.
func benchMix64(seq int64) uint64 {
	z := 1 + uint64(seq)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BenchmarkRecordStamp4 is the standing benchmark's producer-side call
// pattern (benchmark/workload.go stamp): four by-name Sets per record.
// BenchmarkRecordCheck2 is its consumer side (check): two by-name Gets.
// Together they are the native.set / native.get ledger rows in isolation.
func BenchmarkRecordStamp4(b *testing.B) {
	for _, arch := range []string{"sparc-v8", "x86-64"} {
		b.Run(arch, func(b *testing.B) {
			rec := benchMixedRecord(b, arch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seq := int64(i)
				h := benchMix64(seq)
				rec.MustSetInt("iter", 0, seq)
				rec.MustSetInt("flags", 0, int64(uint32(h)))
				rec.MustSetFloat("timestamp", 0, float64(seq)*0.5)
				rec.MustSetFloat("values", int((h>>32)%7), float64(h>>40))
			}
		})
	}
}

func BenchmarkRecordCheck2(b *testing.B) {
	for _, arch := range []string{"sparc-v8", "x86-64"} {
		b.Run(arch, func(b *testing.B) {
			rec := benchMixedRecord(b, arch)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := benchMix64(int64(i))
				if _, err := rec.Int("iter", 0); err != nil {
					b.Fatal(err)
				}
				var err error
				switch h & 3 {
				case 0:
					_, err = rec.Int("flags", 0)
				case 1:
					_, err = rec.Float("timestamp", 0)
				default:
					_, err = rec.Float("values", int((h>>32)%7))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
