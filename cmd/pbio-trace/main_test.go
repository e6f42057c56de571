package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/tracectx"
	"repro/pbio"
)

// writeExport writes one process's span set as a /debug/trace.json
// document to a temp file and returns its path.
func writeExport(t *testing.T, dir, name string, spans []tracectx.Span, dropped int64) string {
	t.Helper()
	var b strings.Builder
	if err := tracectx.WriteChrome(&b, spans, dropped); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func hopSpans() (sender, receiver []tracectx.Span) {
	base := time.Unix(1754400000, 0)
	sender = []tracectx.Span{
		{Trace: 0xabc, ID: 1, Name: tracectx.PhaseSend, Proc: "sender/1",
			Start: base, Dur: 10 * time.Millisecond, Format: "mesh"},
		{Trace: 0xabc, ID: 2, Parent: 1, Name: tracectx.PhaseFrame, Proc: "sender/1",
			Start: base.Add(5 * time.Millisecond), Dur: 5 * time.Millisecond, Format: "mesh"},
	}
	receiver = []tracectx.Span{
		{Trace: 0xabc, ID: 3, Parent: 1, Name: tracectx.PhaseWire, Proc: "receiver/2",
			Start: base.Add(10 * time.Millisecond), Dur: 20 * time.Millisecond, Format: "mesh"},
		{Trace: 0xabc, ID: 4, Parent: 1, Name: tracectx.PhaseConv, Proc: "receiver/2",
			Start: base.Add(30 * time.Millisecond), Dur: 5 * time.Millisecond, Format: "mesh", Path: "dcg"},
	}
	return sender, receiver
}

func TestReadSourceFileAndJoin(t *testing.T) {
	dir := t.TempDir()
	sender, receiver := hopSpans()
	sPath := writeExport(t, dir, "sender.json", sender, 0)
	rPath := writeExport(t, dir, "receiver.json", receiver, 7)

	sSpans, sDrops, err := readSource(sPath)
	if err != nil {
		t.Fatal(err)
	}
	rSpans, rDrops, err := readSource(rPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(sSpans) != 2 || len(rSpans) != 2 {
		t.Fatalf("read %d + %d spans, want 2 + 2", len(sSpans), len(rSpans))
	}
	if sDrops != 0 || rDrops != 7 {
		t.Fatalf("dropped counts %d, %d; want 0, 7", sDrops, rDrops)
	}
	traces := tracectx.Join(sSpans, rSpans)
	if len(traces) != 1 || traces[0].ID != 0xabc || len(traces[0].Spans) != 4 {
		t.Fatalf("join: %+v", traces)
	}
	b := traces[0].Break()
	// Chrome's native unit is the microsecond (as a float), so absolute
	// timestamps round-trip with sub-µs drift.
	if d := b.E2E - 35*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("E2E = %v, want 35ms ± 1µs", b.E2E)
	}
	if len(b.Procs) != 2 || b.Procs[0] != "sender/1" || b.Procs[1] != "receiver/2" {
		t.Fatalf("hops = %v", b.Procs)
	}
}

// TestJoinRealExchange puts spans pbio itself records through the tool's
// path: a traced sparc-v9-64 -> x86-64 exchange, both span sets written
// as Chrome JSON and read back, joins into one trace per record that
// carries every phase of the wire path.
func TestJoinRealExchange(t *testing.T) {
	const records = 4
	fields := []pbio.FieldSpec{
		pbio.F("node", pbio.Int), pbio.F("timestamp", pbio.Double), pbio.Array("values", pbio.Double, 12),
	}
	sendTr := tracectx.New("sender", 1, 64)
	recvTr := tracectx.New("receiver", 1, 64)
	sctx, err := pbio.NewContext(pbio.WithArch("sparc-v9-64"), pbio.WithTracer(sendTr))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sctx.Register("mixed", fields...)
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
	rctx, err := pbio.NewContext(pbio.WithArch("x86-64"),
		pbio.WithConversion(pbio.Generated), pbio.WithTracer(recvTr))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("mixed", fields...)
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
		if err := m.DecodeInto(rf, out); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	var sets [][]tracectx.Span
	for _, tr := range []*tracectx.Tracer{sendTr, recvTr} {
		spans, _, err := readSource(writeExport(t, dir, tr.Proc()+".json", tr.Collector().Snapshot(), 0))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, spans)
	}
	traces := tracectx.Join(sets...)
	if len(traces) != records {
		t.Fatalf("joined %d traces from %d records", len(traces), records)
	}
	for i := range traces {
		seen := map[string]bool{}
		for _, p := range traces[i].Break().Phases {
			seen[p.Name] = true
		}
		for _, want := range []string{tracectx.PhaseFrame, tracectx.PhaseWire, tracectx.PhaseMatch, tracectx.PhaseConv} {
			if !seen[want] {
				t.Errorf("trace %016x has no %s phase (has %v)", traces[i].ID, want, seen)
			}
		}
	}
}

func TestReadSourceHTTP(t *testing.T) {
	sender, _ := hopSpans()
	var doc strings.Builder
	if err := tracectx.WriteChrome(&doc, sender, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(doc.String()))
	}))
	defer srv.Close()
	spans, _, err := readSource(srv.URL + "/debug/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Trace != 0xabc {
		t.Fatalf("scraped spans: %+v", spans)
	}
}

func TestReadSourceHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	if _, _, err := readSource(srv.URL); err == nil {
		t.Fatal("HTTP 404 accepted")
	}
}

func TestWriteJSONShape(t *testing.T) {
	sender, receiver := hopSpans()
	traces := tracectx.Join(sender, receiver)
	var out strings.Builder
	if err := writeJSON(&out, traces, 2, 4, 3); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Sources int   `json:"sources"`
		Spans   int   `json:"spans"`
		Dropped int64 `json:"dropped_spans"`
		Traces  []struct {
			ID     string   `json:"id"`
			Format string   `json:"format"`
			E2E    int64    `json:"e2e_ns"`
			Attrib int64    `json:"attributed_ns"`
			Hops   []string `json:"hops"`
			Phases []struct {
				Name string `json:"name"`
				Proc string `json:"proc"`
				NS   int64  `json:"ns"`
			} `json:"phases"`
			PhaseSum int64 `json:"phase_sum_ns"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Sources != 2 || doc.Spans != 4 || doc.Dropped != 3 || len(doc.Traces) != 1 {
		t.Fatalf("doc header: %+v", doc)
	}
	tr := doc.Traces[0]
	if tr.ID != "0000000000000abc" || tr.Format != "mesh" {
		t.Fatalf("trace id/format: %+v", tr)
	}
	if tr.E2E != (35 * time.Millisecond).Nanoseconds() {
		t.Fatalf("e2e_ns = %d", tr.E2E)
	}
	if len(tr.Hops) != 2 || len(tr.Phases) != 4 {
		t.Fatalf("hops/phases: %+v", tr)
	}
	var sum int64
	for _, p := range tr.Phases {
		sum += p.NS
	}
	if sum != tr.PhaseSum {
		t.Fatalf("phase_sum_ns %d != recomputed %d", tr.PhaseSum, sum)
	}
}

func TestTraceFormatLabels(t *testing.T) {
	mixed := tracectx.Trace{Spans: []tracectx.Span{{Format: "a"}, {Format: "b"}}}
	if got := traceFormat(&mixed); got != "(mixed formats)" {
		t.Fatalf("mixed: %q", got)
	}
	unknown := tracectx.Trace{Spans: []tracectx.Span{{}}}
	if got := traceFormat(&unknown); got != "(unknown format)" {
		t.Fatalf("unknown: %q", got)
	}
	one := tracectx.Trace{Spans: []tracectx.Span{{Format: "mesh"}, {}}}
	if got := traceFormat(&one); got != `"mesh"` {
		t.Fatalf("single: %q", got)
	}
}
