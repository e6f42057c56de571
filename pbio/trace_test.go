package pbio

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
)

// traceCtxFor builds a context with an always-on tracer named proc.
func traceCtxFor(t *testing.T, arch, proc string, opts ...Option) (*Context, *tracectx.Tracer) {
	t.Helper()
	tr := tracectx.New(proc, 1, 0)
	ctx := ctxFor(t, arch, append([]Option{WithTracer(tr)}, opts...)...)
	return ctx, tr
}

func spansNamed(spans []tracectx.Span, name string) []tracectx.Span {
	var out []tracectx.Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestTracedStreamDecodesIdentically is the type-extension acceptance
// check: a receiver that knows nothing about tracing decodes a traced
// stream into exactly the bytes an untraced stream produces.
func TestTracedStreamDecodesIdentically(t *testing.T) {
	fill := func(rec *Record) {
		rec.MustSetInt("x", 0, -42)
		for i := 0; i < 4; i++ {
			rec.MustSetFloat("vals", i, float64(i)*1.5)
		}
	}
	fields := []FieldSpec{F("x", Int), Array("vals", Double, 4)}

	encode := func(opts ...Option) []byte {
		sctx := ctxFor(t, "sparc-v9-64", opts...)
		f, err := sctx.Register("sample", fields...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := sctx.NewWriter(&buf)
		rec := f.NewRecord()
		fill(rec)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := encode()
	traced := encode(WithTracing(1))
	if bytes.Equal(plain, traced) {
		t.Fatal("traced stream should differ on the wire (extended format)")
	}

	decode := func(stream []byte) []byte {
		rctx := ctxFor(t, "x86-64") // no tracing: the non-updated receiver
		f, err := rctx.Register("sample", fields...)
		if err != nil {
			t.Fatal(err)
		}
		m, err := rctx.NewReader(bytes.NewReader(stream)).Read()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Bytes()
	}
	if !bytes.Equal(decode(plain), decode(traced)) {
		t.Fatal("non-tracing receiver decoded traced stream differently")
	}
}

// TestTraceSpansAcrossStream checks both ends record their phases and
// the offline join reassembles one trace.
func TestTraceSpansAcrossStream(t *testing.T) {
	sctx, str := traceCtxFor(t, "sparc-v9-64", "sender")
	f, err := sctx.Register("sample", F("x", Int), Array("vals", Double, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	if err := w.Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}

	rctx, rtr := traceCtxFor(t, "x86-64", "receiver")
	rf, err := rctx.Register("sample", F("x", Int), Array("vals", Double, 4))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(bytes.NewReader(buf.Bytes())).Read()
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := m.TraceID(); !ok || id == 0 {
		t.Fatalf("message not traced: id %#x ok %v", id, ok)
	}
	if _, err := m.Decode(rf); err != nil {
		t.Fatal(err)
	}

	sspans := str.Collector().Snapshot()
	for _, phase := range []string{tracectx.PhaseSend, tracectx.PhaseExtend, tracectx.PhaseFrame} {
		if got := spansNamed(sspans, phase); len(got) != 1 {
			t.Fatalf("sender has %d %q spans, want 1 (all: %+v)", len(got), phase, sspans)
		}
	}
	rspans := rtr.Collector().Snapshot()
	for _, phase := range []string{tracectx.PhaseWire, tracectx.PhaseMatch, tracectx.PhaseConv} {
		if got := spansNamed(rspans, phase); len(got) != 1 {
			t.Fatalf("receiver has %d %q spans, want 1 (all: %+v)", len(got), phase, rspans)
		}
	}
	if conv := spansNamed(rspans, tracectx.PhaseConv)[0]; conv.Path != "dcg" {
		t.Fatalf("convert span path %q, want dcg", conv.Path)
	}

	traces := tracectx.Join(sspans, rspans)
	if len(traces) != 1 {
		t.Fatalf("joined %d traces, want 1", len(traces))
	}
	b := traces[0].Break()
	if len(b.Procs) != 2 || b.Procs[0] != "sender" || b.Procs[1] != "receiver" {
		t.Fatalf("hops = %v, want [sender receiver]", b.Procs)
	}
	// Every downstream span is parented on the sender's root send span.
	root := spansNamed(sspans, tracectx.PhaseSend)[0]
	for _, s := range append(spansNamed(rspans, tracectx.PhaseWire), spansNamed(rspans, tracectx.PhaseConv)...) {
		if s.Parent != root.ID {
			t.Fatalf("span %q parent %#x, want sender root %#x", s.Name, s.Parent, root.ID)
		}
		if s.Trace != root.Trace {
			t.Fatalf("span %q trace %#x, want %#x", s.Name, s.Trace, root.Trace)
		}
	}
}

// TestTracedInterpPath checks the interpreted regime labels its spans.
func TestTracedInterpPath(t *testing.T) {
	sctx, _ := traceCtxFor(t, "sparc-v9-64", "sender")
	f, err := sctx.Register("sample", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	rctx, rtr := traceCtxFor(t, "x86-64", "receiver", WithConversion(Interpreted))
	rf, err := rctx.Register("sample", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(bytes.NewReader(buf.Bytes())).Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decode(rf); err != nil {
		t.Fatal(err)
	}
	conv := spansNamed(rtr.Collector().Snapshot(), tracectx.PhaseConv)
	if len(conv) != 1 || conv[0].Path != "interp" {
		t.Fatalf("interp convert spans: %+v", conv)
	}
}

// TestTracedZeroCopyView checks the homogeneous fast path still works
// for traced messages: the receiver recognizes its own trace-extended
// layout and views the base record without conversion.
func TestTracedZeroCopyView(t *testing.T) {
	sctx, _ := traceCtxFor(t, "x86-64", "sender")
	f, err := sctx.Register("sample", F("x", Int), Array("vals", Double, 4))
	if err != nil {
		t.Fatal(err)
	}
	rec := f.NewRecord()
	rec.MustSetInt("x", 0, 77)
	rec.MustSetFloat("vals", 2, 2.5)
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}

	rctx, rtr := traceCtxFor(t, "x86-64", "receiver")
	rf, err := rctx.Register("sample", F("x", Int), Array("vals", Double, 4))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(bytes.NewReader(buf.Bytes())).Read()
	if err != nil {
		t.Fatal(err)
	}
	view, ok, err := m.View(rf)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("homogeneous traced message refused zero-copy view")
	}
	if view != &m.view || len(view.Bytes()) != rf.Size() {
		t.Fatalf("traced view is %p with %d bytes, want the reader-owned record %p over the %d-byte base record",
			view, len(view.Bytes()), &m.view, rf.Size())
	}
	if x, _ := view.Int("x", 0); x != 77 {
		t.Fatalf("viewed x = %d, want 77", x)
	}
	if v, _ := view.Float("vals", 2); v != 2.5 {
		t.Fatalf("viewed vals[2] = %v, want 2.5", v)
	}
	vs := spansNamed(rtr.Collector().Snapshot(), tracectx.PhaseView)
	if len(vs) != 1 || vs[0].Path != "zero_copy" {
		t.Fatalf("view spans: %+v", vs)
	}
}

// TestTracingDisabledMatchesPlainWire: rate 0 leaves the wire bytes
// identical to a context with no tracer at all.
func TestTracingDisabledMatchesPlainWire(t *testing.T) {
	fields := []FieldSpec{F("x", Int)}
	encode := func(opts ...Option) []byte {
		ctx := ctxFor(t, "x86-64", opts...)
		f, err := ctx.Register("sample", fields...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ctx.NewWriter(&buf).Write(f.NewRecord()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode(WithTracing(0))) {
		t.Fatal("rate-0 tracing changed the wire bytes")
	}
}

// TestUntraceableFormatFallsBack: a format that already uses the
// reserved field name sends untraced rather than failing.
func TestUntraceableFormatFallsBack(t *testing.T) {
	sctx, str := traceCtxFor(t, "x86-64", "sender")
	f, err := sctx.Register("odd", F("x", Int), Array("__pbio_trace", ULongLong, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	rctx := ctxFor(t, "x86-64")
	rf, err := rctx.Register("odd", F("x", Int), Array("__pbio_trace", ULongLong, 3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(bytes.NewReader(buf.Bytes())).Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Decode(rf); err != nil {
		t.Fatal(err)
	}
	if got := spansNamed(str.Collector().Snapshot(), tracectx.PhaseSend); len(got) != 0 {
		t.Fatalf("untraceable format recorded %d send spans, want 0", len(got))
	}
}

// TestTraceMetricsExported: WithTracing + WithTelemetry publishes the
// tracer counters and mounts /debug/trace.json.
func TestTraceMetricsExported(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctx := ctxFor(t, "x86-64", WithTelemetry(reg), WithTracing(1))
	f, err := ctx.Register("sample", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctx.NewWriter(&buf).Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	found := make(map[string]int64)
	for _, m := range reg.Snapshot() {
		for _, s := range m.Series {
			found[m.Name] = s.Value
		}
	}
	if found["pbio_trace_messages_sampled_total"] != 1 {
		t.Fatalf("sampled counter = %d, want 1 (metrics: %v)", found["pbio_trace_messages_sampled_total"], found)
	}
	if found["pbio_trace_spans_total"] != 3 {
		t.Fatalf("spans counter = %d, want 3 (send, extend, frame)", found["pbio_trace_spans_total"])
	}
	mux := reg.ServeMux()
	if mux == nil {
		t.Fatal("nil mux")
	}
	h, pattern := mux.Handler(httptest.NewRequest("GET", "/debug/trace.json", nil))
	if pattern != "/debug/trace.json" || h == nil {
		t.Fatalf("trace.json not mounted: pattern %q", pattern)
	}
}

// TestWireSpanAnchoredOnSendStamp: the wire span starts at the sender's
// wall-clock send stamp and ends at arrival.
func TestWireSpanAnchoredOnSendStamp(t *testing.T) {
	sctx, _ := traceCtxFor(t, "x86-64", "sender")
	f, err := sctx.Register("sample", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(f.NewRecord()); err != nil {
		t.Fatal(err)
	}
	rctx, rtr := traceCtxFor(t, "x86-64", "receiver")
	if _, err := rctx.NewReader(bytes.NewReader(buf.Bytes())).Read(); err != nil {
		t.Fatal(err)
	}
	after := time.Now()
	ws := spansNamed(rtr.Collector().Snapshot(), tracectx.PhaseWire)
	if len(ws) != 1 {
		t.Fatalf("wire spans: %+v", ws)
	}
	if ws[0].Start.Before(before) || ws[0].End().After(after.Add(time.Millisecond)) {
		t.Fatalf("wire span [%v, %v] outside test window [%v, %v]",
			ws[0].Start, ws[0].End(), before, after)
	}
	_ = f
}
