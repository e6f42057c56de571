package pbio

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Per-format state on the Reader (formatState, indexed by the
// transport's slot ordinal): what a record costs, and answers, when the
// one before it was of a different format.

// cacheGets returns how many lookups of the context's pair table found a
// program (hits) and how many compiled one (misses), by the context's
// pbio_dcg_cache_* counters.
func cacheGets(t *testing.T, reg *telemetry.Registry) (hits, misses int64) {
	t.Helper()
	for _, m := range reg.Snapshot() {
		for _, s := range m.Series {
			switch m.Name {
			case "pbio_dcg_cache_hits_total":
				hits += s.Value
			case "pbio_dcg_cache_misses_total":
				misses += s.Value
			}
		}
	}
	return hits, misses
}

// interpImage converts the message's bytes with the interpreted
// reference engine, outside every cache.
func interpImage(t *testing.T, m *Message, expected *Format) []byte {
	t.Helper()
	plan, err := convert.NewPlan(m.msg.Format, expected.wf)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, expected.wf.Size)
	if err := convert.NewInterp(plan).Convert(want, m.msg.Data); err != nil {
		t.Fatal(err)
	}
	return want
}

// 32 formats round-robin through one Reader: the shared cache is asked
// once per format pair, in the first round, and never again; every
// record of every round is what the interpreted reference produces.
func TestRoundRobinDecodeConsultsCacheOncePerPair(t *testing.T) {
	const n, rounds = 32, 3
	reg := telemetry.NewRegistry()
	src, rctx, expected := roundRobinStream(t, n, rounds, WithTelemetry(reg))
	r := rctx.NewReader(src)
	defer r.Close()
	outs := make([]*Record, n)
	for i, rf := range expected {
		outs[i] = rf.NewRecord()
	}
	for round := 0; round < rounds; round++ {
		for i, rf := range expected {
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if m.FormatName() != rf.Name() {
				t.Fatalf("round %d record %d is %q, want %q", round, i, m.FormatName(), rf.Name())
			}
			if err := m.DecodeInto(rf, outs[i]); err != nil {
				t.Fatal(err)
			}
			if want := interpImage(t, m, rf); !bytes.Equal(outs[i].Bytes(), want) {
				t.Fatalf("round %d format %d: decoded bytes differ from convert.Interp", round, i)
			}
			if v, _ := outs[i].Int("node", 0); v != int64(i) {
				t.Fatalf("round %d format %d: node = %d", round, i, v)
			}
		}
		if hits, misses := cacheGets(t, reg); hits != 0 || misses != n {
			t.Fatalf("after round %d the cache has answered %d hits and %d misses, want 0 and %d: one Get per format pair, all in the first round",
				round+1, hits, misses, n)
		}
	}
	if len(r.state) != n {
		t.Errorf("reader holds state for %d formats, want %d", len(r.state), n)
	}
}

// One wire format asked about under changing expected formats: each kind
// of entry (conversion, layout verdict) holds one expected format and is
// replaced — at the price of one cache lookup, never a stale answer —
// when another is asked about.
func TestRoundRobinAlternatingExpectedFormats(t *testing.T) {
	reg := telemetry.NewRegistry()
	sctx := ctxFor(t, "x86-64")
	rctx := ctxFor(t, "x86-64", WithTelemetry(reg))
	fields := []FieldSpec{F("a", Int), F("b", Double), F("c", Long)}
	sf, err := sctx.Register("w", fields...)
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := rctx.Register("w", F("c", Long), F("a", Int))
	if err != nil {
		t.Fatal(err)
	}
	widened, err := rctx.Register("w", F("b", Double), F("a", Long), F("missing", Int))
	if err != nil {
		t.Fatal(err)
	}
	same, err := rctx.Register("w", fields...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	const records = 6
	for k := 0; k < records; k++ {
		rec := sf.NewRecord()
		rec.MustSetInt("a", 0, int64(k))
		rec.MustSetFloat("b", 0, float64(k)+0.25)
		rec.MustSetInt("c", 0, int64(k)*1000)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := rctx.NewReader(&stream)
	defer r.Close()
	for k := 0; k < records; k++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		for _, rf := range []*Format{reordered, widened, reordered} {
			out, err := m.Decode(rf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), interpImage(t, m, rf)) {
				t.Fatalf("record %d into %v: decoded bytes differ from convert.Interp", k, rf.Fields())
			}
			if a, _ := out.Int("a", 0); a != int64(k) {
				t.Fatalf("record %d: a = %d", k, a)
			}
			if _, ok, err := m.View(rf); ok || err != nil {
				t.Fatalf("record %d viewed through a different layout: ok=%v err=%v", k, ok, err)
			}
			v, ok, err := m.View(same)
			if err != nil || !ok {
				t.Fatalf("record %d: View through the sender's layout: ok=%v err=%v", k, ok, err)
			}
			if !bytes.Equal(v.Bytes(), m.msg.Data) {
				t.Fatalf("record %d: view is not the wire bytes", k)
			}
			if c, _ := v.Int("c", 0); c != int64(k)*1000 {
				t.Fatalf("record %d: viewed c = %d", k, c)
			}
		}
	}
	// Two programs compiled; every later change of expected format — two
	// per record, the first decode of a record finds the entry the last
	// one of the record before left — is one hit on the shared cache.
	if hits, misses := cacheGets(t, reg); misses != 2 || hits != 2*records-1 {
		t.Errorf("cache answered %d hits and %d misses, want %d and 2", hits, misses, 2*records-1)
	}
	if len(r.state) != 1 {
		t.Errorf("reader holds state for %d formats, want 1", len(r.state))
	}
}

// The interpreted engine and the fused batch decode file their plan and
// program on the same per-format state DecodeInto uses.
func TestRoundRobinInterpretedAndBatchShareSlot(t *testing.T) {
	const n, rounds = 4, 3
	t.Run("interpreted", func(t *testing.T) {
		src, rctx, expected := roundRobinStream(t, n, rounds, WithConversion(Interpreted))
		r := rctx.NewReader(src)
		defer r.Close()
		plans := make([]*convert.Plan, n)
		for round := 0; round < rounds; round++ {
			for i, rf := range expected {
				m, err := r.Read()
				if err != nil {
					t.Fatal(err)
				}
				out, err := m.Decode(rf)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), interpImage(t, m, rf)) {
					t.Fatalf("round %d format %d: wrong bytes", round, i)
				}
				st := m.state()
				if st.convNF != rf.wf || st.plan == nil || st.prog != nil {
					t.Fatalf("round %d format %d: state (%p, plan %p, prog %p) does not hold the plan just used", round, i, st.convNF, st.plan, st.prog)
				}
				if round == 0 {
					plans[i] = st.plan
				} else if st.plan != plans[i] {
					t.Errorf("round %d format %d: the plan was looked up again", round, i)
				}
			}
			// Empty the context's pair table: a later lookup would build a
			// new plan, which the pointer compare above would see.
			rctx.cache = dcg.NewCache()
		}
	})
	t.Run("batch", func(t *testing.T) {
		// Batch frames of n formats in turn; the receiver alternates the
		// fused decode of a whole frame with per-record DecodeInto.
		const batch = 4
		reg := telemetry.NewRegistry()
		sctx := ctxFor(t, "sparc-v8")
		rctx := ctxFor(t, "x86-64", WithTelemetry(reg))
		var stream bytes.Buffer
		w := sctx.NewWriter(&stream)
		expected := make([]*Format, n)
		sent := make([][]*Record, n)
		for i := range expected {
			name := fmt.Sprintf("tick%d", i)
			sf, err := sctx.Register(name, benchTickFields()...)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < batch; j++ {
				rec := sf.NewRecord()
				rec.MustSetInt("node", 0, int64(i*batch+j))
				sent[i] = append(sent[i], rec)
			}
			if expected[i], err = rctx.Register(name, benchTickFields()...); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < rounds; round++ {
			for i := range sent {
				if err := w.WriteBatch(sent[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := rctx.NewReader(&stream)
		defer r.Close()
		for round := 0; round < rounds; round++ {
			for i, rf := range expected {
				m, err := r.Read()
				if err != nil {
					t.Fatal(err)
				}
				if (round+i)%2 == 0 {
					rb := rf.NewRecordBatch()
					if cnt, err := m.DecodeBatch(rf, rb); err != nil || cnt != batch {
						t.Fatalf("DecodeBatch = %d, %v", cnt, err)
					}
					for j := 0; j < batch; j++ {
						if v, _ := rb.View(j).Int("node", 0); v != int64(i*batch+j) {
							t.Fatalf("round %d format %d record %d: node = %d", round, i, j, v)
						}
					}
					continue
				}
				for j := 0; ; j++ {
					out, err := m.Decode(rf)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), interpImage(t, m, rf)) {
						t.Fatalf("round %d format %d record %d: Decode bytes differ from convert.Interp", round, i, j)
					}
					if j == batch-1 {
						break
					}
					if m, err = r.Read(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if hits, misses := cacheGets(t, reg); hits != 0 || misses != n {
			t.Errorf("cache answered %d hits and %d misses, want 0 and %d: DecodeBatch and DecodeInto share one entry per format", hits, misses, n)
		}
	})
}

// A stream that mixes formats with and without a trace field resolves
// each one's trace offset on its first record and consults the stored
// answer afterwards.
func TestRoundRobinTraceOffsetOncePerFormat(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	var wfs []*wire.Format // per stream format, in id order
	var recs [][]byte
	for _, name := range []string{"a", "b"} {
		f, err := sctx.Register(name, F("x", Int), F("y", Double))
		if err != nil {
			t.Fatal(err)
		}
		twf, off, err := f.tracedFormat()
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, f.wf.Size)
		traced := make([]byte, twf.Size)
		wire.PutTraceContext(traced, twf.Order, off, wire.TraceContext{TraceID: 99, ParentSpan: 1, SendUnixNs: 1})
		wfs = append(wfs, f.wf, twf)
		recs = append(recs, plain, traced)
	}
	var stream bytes.Buffer
	tw := transport.NewWriter(&stream)
	loop := 0
	for round := 0; round < 2; round++ {
		for i, wf := range wfs {
			if err := tw.WriteRecord(wf, recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			loop = stream.Len()
		}
	}
	rctx, _ := traceCtxFor(t, "x86-64", "reader")
	r := rctx.NewReader(&streamReader{raw: stream.Bytes(), loop: loop})
	defer r.Close()
	for round := 0; round < 3; round++ {
		for i, wf := range wfs {
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if _, traced := m.TraceID(); traced != (i%2 == 1) {
				t.Fatalf("round %d format %d: traced = %v", round, i, traced)
			}
			st := m.state()
			if !st.traceSeen || st.traceOff != wire.TraceFieldOffset(wf) {
				t.Fatalf("round %d format %d: state holds offset (%v, %d), want %d", round, i, st.traceSeen, st.traceOff, wire.TraceFieldOffset(wf))
			}
		}
	}
	if len(r.state) != len(wfs) {
		t.Fatalf("reader holds state for %d formats, want %d", len(r.state), len(wfs))
	}
	// The stored offset is the one consulted: blank it and the format's
	// records stop reading as traced.
	r.state[1].traceOff = -1
	for i := range wfs {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if _, traced := m.TraceID(); traced != (i == 3) {
			t.Errorf("format %d after blanking format 1's offset: traced = %v", i, traced)
		}
	}
}
