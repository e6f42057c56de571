package pbio

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dcg"
	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// One decode body, observed or not: what the receiver produces, and how
// often it asks the pair table, must not depend on who is watching.

// observeFields is the e2e matrix's record shape: every basic type
// class, a char array, padding, and a nested structure.
var observeFields = []FieldSpec{
	F("seq", Int), F("ts", Double), F("big", LongLong), F("ul", ULong),
	Array("tag", Char, 12), F("small", Short), Array("data", Double, 17),
	Struct("inner", F("a", Int), Array("v", Float, 3)),
}

// observeFrames is the stream's shape, in records per frame: single
// records, which the sender samples and so sends under the
// trace-extended format, and batch frames, which are never sampled —
// two wire formats, so two pairs on the receiver, both seen by the end
// of the second frame.
var observeFrames = []int{1, 3, 1, 1, 3}

const observeRecords, observePairs = 9, 2

// observeStream is what one sender architecture puts on the wire.
func observeStream(t *testing.T, arch string) []byte {
	t.Helper()
	sctx, _ := traceCtxFor(t, arch, "sender")
	f, err := sctx.Register("msg", observeFields...)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, observeRecords)
	for i := range recs {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i+1))
		rec.MustSetFloat("ts", 0, float64(i)*0.001)
		rec.MustSetInt("big", 0, int64(i)<<40|0x1234)
		rec.MustSetInt("ul", 0, int64(i)*1000003)
		rec.MustSetString("tag", fmt.Sprintf("rec-%d", i))
		rec.MustSetInt("small", 0, int64(i-3))
		for e := 0; e < 17; e++ {
			rec.MustSetFloat("data", e, float64(i*17+e)*0.5)
		}
		inner := rec.MustSub("inner", 0)
		inner.MustSetInt("a", 0, int64(i*3))
		inner.MustSetFloat("v", 2, float64(i)+0.25)
		recs[i] = rec
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	for _, n := range observeFrames {
		if n == 1 {
			err = w.Write(recs[0])
		} else {
			err = w.WriteBatch(recs[:n])
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
	return stream.Bytes()
}

// observeRun decodes stream on a fresh receiver context — DecodeInto for
// the single records, DecodeBatch for the batch frame, View on every
// message that offers one — and returns each record's native image.
// Once both pairs have been seen the context's table is swapped for an
// empty one that counts what it is asked to build: a receiver that
// consults the table once per pair never asks it anything.
func observeRun(t *testing.T, stream []byte, arch string, opts ...Option) (images [][]byte, rebuilt int) {
	t.Helper()
	rctx := ctxFor(t, arch, opts...)
	rf, err := rctx.Register("msg", observeFields...)
	if err != nil {
		t.Fatal(err)
	}
	r := rctx.NewReader(bytes.NewReader(stream))
	defer r.Close()
	out, rb := rf.NewRecord(), rf.NewRecordBatch()
	for frame, records := range observeFrames {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", len(images), err)
		}
		_, traced := m.TraceID()
		if traced != (rctx.tracer != nil && !m.Batched()) {
			t.Fatalf("record %d: traced = %v on a receiver with tracer %v", len(images), traced, rctx.tracer != nil)
		}
		var viewed []byte
		if v, ok, err := m.View(rf); err != nil {
			t.Fatal(err)
		} else if ok {
			viewed = bytes.Clone(v.Bytes())
		} else if m.SameLayout(rf) {
			t.Fatalf("record %d: View refused a record of the expected layout", len(images))
		}
		first := len(images)
		if m.Batched() {
			n, err := m.DecodeBatch(rf, rb)
			if err != nil || n != records {
				t.Fatalf("DecodeBatch = %d, %v; the frame holds %d records", n, err, records)
			}
			for i := 0; i < n; i++ {
				images = append(images, bytes.Clone(rb.Bytes(i)))
			}
		} else {
			if err := m.DecodeInto(rf, out); err != nil {
				t.Fatal(err)
			}
			images = append(images, bytes.Clone(out.Bytes()))
		}
		if viewed != nil && !bytes.Equal(viewed, images[first]) {
			t.Fatalf("record %d: the view and the decode disagree", first)
		}
		if frame == observePairs-1 {
			rctx.cache = dcg.NewCache()
			rctx.cache.OnBuild = func(dcg.Build) { rebuilt++ }
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	return images, rebuilt
}

// TestRoundRobinObservationModes: over the e2e matrix's architecture
// pairs, both engines and every combination of telemetry and tracing
// produce the bytes — padding included — the plain interpreted run
// produces, ask the pair table once per pair, and never compile under
// Interpreted.  (On the parent of the PR that added it this fails in
// exactly one way: sampled records bypassed the reader's slots, so the
// generated/tracing rows counted a cache hit per record.)
func TestRoundRobinObservationModes(t *testing.T) {
	archs := archNames()
	if testing.Short() {
		archs = []string{"sparc-v8", "x86", "x86-64", "mips-n64"}
	}
	for _, from := range archs {
		stream := observeStream(t, from)
		for _, to := range archs {
			want, _ := observeRun(t, stream, to, WithConversion(Interpreted))
			rf, err := ctxFor(t, to).Register("msg", observeFields...)
			if err != nil {
				t.Fatal(err)
			}
			rec := rf.NewRecord()
			for i, img := range want {
				copy(rec.rec.Buf, img)
				if seq, _ := rec.Int("seq", 0); seq != int64(i+1) {
					t.Fatalf("%s->%s: reference record %d reads seq %d", from, to, i, seq)
				}
			}
			for _, mode := range []ConvMode{Generated, Interpreted} {
				for obs := 0; obs < 4; obs++ {
					name := fmt.Sprintf("%s->%s/%v/telemetry=%v,tracing=%v", from, to, mode, obs&1 != 0, obs&2 != 0)
					opts := []Option{WithConversion(mode)}
					var reg *telemetry.Registry
					if obs&1 != 0 {
						reg = telemetry.NewRegistry()
						opts = append(opts, WithTelemetry(reg))
					}
					if obs&2 != 0 {
						opts = append(opts, WithTracer(tracectx.New("receiver", 1, 0)))
					}
					got, rebuilt := observeRun(t, stream, to, opts...)
					for i := range want {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("%s: record %d differs from the plain interpreted decode", name, i)
						}
					}
					if rebuilt != 0 {
						t.Errorf("%s: the pair table was asked again %d times after the pair's first decode", name, rebuilt)
					}
					if reg == nil {
						continue
					}
					hits, misses := cacheGets(t, reg)
					compiles := histogramCount(reg, "pbio_dcg_compile_nanos")
					wantMisses := int64(observePairs)
					if mode == Interpreted {
						wantMisses = 0
					}
					if hits != 0 || misses != wantMisses || compiles != wantMisses {
						t.Errorf("%s: %d cache hits, %d misses, %d compiles timed; want 0, %d, %d",
							name, hits, misses, compiles, wantMisses, wantMisses)
					}
					if builds := histogramCount(reg, "pbio_convert_plan_build_nanos"); builds != observePairs {
						t.Errorf("%s: %d plan builds timed, want %d", name, builds, observePairs)
					}
				}
			}
		}
	}
}

func histogramCount(reg *telemetry.Registry, name string) (n int64) {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			for _, s := range m.Series {
				n += s.Histogram.Count
			}
		}
	}
	return n
}

// TestRoundRobinTracedDecodeConsultsCacheOncePerPair: a thousand sampled
// records of one pair cost the pair table one lookup, the one that
// compiles — the same as a thousand unsampled ones.
func TestRoundRobinTracedDecodeConsultsCacheOncePerPair(t *testing.T) {
	const records = 1000
	sctx, _ := traceCtxFor(t, "sparc-v8", "sender")
	sf, err := sctx.Register("tick", benchTickFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	rec := sf.NewRecord()
	for i := 0; i < records; i++ {
		rec.MustSetInt("node", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	rctx, rtr := traceCtxFor(t, "x86-64", "receiver", WithTelemetry(reg))
	rf, err := rctx.Register("tick", benchTickFields()...)
	if err != nil {
		t.Fatal(err)
	}
	r := rctx.NewReader(&stream)
	defer r.Close()
	out := rf.NewRecord()
	for i := 0; i < records; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if _, traced := m.TraceID(); !traced {
			t.Fatalf("record %d arrived unsampled", i)
		}
		if err := m.DecodeInto(rf, out); err != nil {
			t.Fatal(err)
		}
		if v, _ := out.Int("node", 0); v != int64(i) {
			t.Fatalf("record %d: node = %d", i, v)
		}
	}
	if hits, misses := cacheGets(t, reg); hits != 0 || misses != 1 {
		t.Errorf("%d traced records: %d cache hits and %d misses, want 0 and 1", records, hits, misses)
	}
	if n := len(spansNamed(rtr.Collector().Snapshot(), tracectx.PhaseMatch)); n == 0 {
		t.Error("no match spans recorded")
	}
}

// TestMetricCatalogue pins the name, kind and label names of every
// metric family a fully observed context registers — in both engines,
// over a heterogeneous, a homogeneous and a batched exchange — against
// testdata/metrics.txt.  Most families are mentioned nowhere but the
// line that registers them; this is what notices a rename.
func TestMetricCatalogue(t *testing.T) {
	reg := telemetry.NewRegistry()
	fr := flightrec.New("catalogue", 64)
	for _, mode := range []ConvMode{Generated, Interpreted} {
		opts := []Option{WithTelemetry(reg), WithFlightRecorder(fr), WithConversion(mode),
			WithTracer(tracectx.New("catalogue", 1, 0))}
		sctx := ctxFor(t, "sparc-v8", opts...)
		sf, err := sctx.Register("msg", observeFields...)
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		w := sctx.NewWriter(&stream)
		if err := w.Write(sf.NewRecord()); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBatch([]*Record{sf.NewRecord(), sf.NewRecord()}); err != nil {
			t.Fatal(err)
		}
		for _, arch := range []string{"x86-64", "sparc-v8"} { // heterogeneous, homogeneous
			rctx := ctxFor(t, arch, opts...)
			rf, err := rctx.Register("msg", observeFields...)
			if err != nil {
				t.Fatal(err)
			}
			r := rctx.NewReader(bytes.NewReader(stream.Bytes()))
			for i := 0; i < 2; i++ {
				m, err := r.Read()
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.View(rf); err != nil {
					t.Fatal(err)
				}
				if _, err := m.DecodeBatch(rf, rf.NewRecordBatch()); err != nil {
					t.Fatal(err)
				}
			}
			r.Close()
		}
	}
	var lines []string
	for _, m := range reg.Snapshot() {
		var labels []string
		if len(m.Series) > 0 {
			for name := range m.Series[0].Labels {
				labels = append(labels, name)
			}
			sort.Strings(labels)
		}
		lines = append(lines, strings.TrimSpace(fmt.Sprintf("%s %s %s", m.Name, m.Type, strings.Join(labels, ","))))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "metrics.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("metric catalogue differs from %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}
