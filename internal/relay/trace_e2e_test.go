package relay

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/pbio"
)

// scrapeTrace exports a tracer through a real telemetry HTTP listener and
// reads its spans back via /debug/trace.json — the same path pbio-trace
// uses against live processes.
func scrapeTrace(t *testing.T, tr *tracectx.Tracer) []tracectx.Span {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr.ExportMetrics(reg)
	ln, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	spans, err := tracectx.ReadChrome(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestTraceE2EThroughRelay drives one traced record sender -> relay ->
// receiver at sampling rate 1.0, scrapes all three hops' trace exports
// over HTTP, and checks the joined trace attributes the measured
// end-to-end latency to phases across all three processes.
func TestTraceE2EThroughRelay(t *testing.T) {
	relayTr := tracectx.New("pbio-relay", 1, 0)
	s, prodAddr, consAddr := startRelay(t)
	s.SetTracing(relayTr)

	sendTr := tracectx.New("sender", 1, 0)
	recvTr := tracectx.New("receiver", 1, 0)

	// Consumer first, so the data frame is a live broadcast.
	cconn, err := net.Dial("tcp", consAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	rctx, err := pbio.NewContext(pbio.WithArch("sparc-v9-64"), pbio.WithTracer(recvTr))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("sample",
		pbio.F("seq", pbio.Int), pbio.F("v", pbio.Double))
	if err != nil {
		t.Fatal(err)
	}
	cconn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reader := rctx.NewReader(cconn)

	pconn, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pconn.Close()
	sctx, err := pbio.NewContext(pbio.WithArch("x86-64"), pbio.WithTracer(sendTr))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := sctx.Register("sample",
		pbio.F("seq", pbio.Int), pbio.F("v", pbio.Double))
	if err != nil {
		t.Fatal(err)
	}
	w := sctx.NewWriter(pconn)
	rec := sf.NewRecord()
	rec.MustSetInt("seq", 0, 42)
	rec.MustSetFloat("v", 0, 0.5)

	// A live broadcast reaches only registered consumers: wait until the
	// relay has accepted ours, or the one record is delivered to nobody.
	waitFor(t, "the relay to register the consumer", func() bool { return s.Consumers() == 1 })

	t0 := time.Now()
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := reader.Read()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Decode(rf)
	if err != nil {
		t.Fatal(err)
	}
	e2e := time.Since(t0)
	if v, _ := got.Int("seq", 0); v != 42 {
		t.Fatalf("seq = %d through relay, want 42", v)
	}
	if id, ok := m.TraceID(); !ok || id == 0 {
		t.Fatal("message lost its trace context crossing the relay")
	}

	// The relay records its span after broadcast; give its goroutine a
	// moment before scraping.
	deadline := time.Now().Add(5 * time.Second)
	for relayTr.Collector().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	traces := tracectx.Join(
		scrapeTrace(t, sendTr),
		scrapeTrace(t, relayTr),
		scrapeTrace(t, recvTr),
	)
	if len(traces) != 1 {
		t.Fatalf("joined %d traces, want 1", len(traces))
	}
	b := traces[0].Break()
	procs := make(map[string]bool, len(b.Procs))
	for _, p := range b.Procs {
		procs[p] = true
	}
	for _, want := range []string{"sender", "pbio-relay", "receiver"} {
		if !procs[want] {
			t.Fatalf("trace missing hop %q: procs %v", want, b.Procs)
		}
	}
	phases := make(map[string]bool)
	for _, s := range traces[0].Spans {
		phases[s.Name] = true
	}
	for _, want := range []string{
		tracectx.PhaseSend, tracectx.PhaseExtend, tracectx.PhaseFrame,
		tracectx.PhaseRelay, tracectx.PhaseWire, tracectx.PhaseConv,
	} {
		if !phases[want] {
			t.Fatalf("trace missing phase %q: %v", want, phases)
		}
	}
	// The phase union must account for the measured latency: nothing
	// beyond what the stopwatch saw (plus scheduling slack), and no
	// gaping unattributed hole.
	if b.Attributed > e2e+5*time.Millisecond {
		t.Fatalf("attributed %v exceeds measured e2e %v", b.Attributed, e2e)
	}
	if b.Attributed < e2e/2 {
		t.Fatalf("attributed %v covers under half of measured e2e %v", b.Attributed, e2e)
	}
	if b.E2E < b.Attributed {
		t.Fatalf("trace E2E %v < attributed %v", b.E2E, b.Attributed)
	}
}

// traceExchange pushes a pre-encoded producer byte stream through a live
// relay and reads records off a clean consumer link until the stream
// ends, returning how many records arrived and how many carried trace
// context.
func traceExchange(t *testing.T, s *Server, prodAddr, consAddr string, stream []byte, wrap func(net.Conn) net.Conn) (delivered, traced int) {
	t.Helper()
	cconn, err := net.Dial("tcp", consAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cconn.Close()
	rctx, err := pbio.NewContext(pbio.WithArch("x86"),
		pbio.WithTracer(tracectx.New("receiver", 1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("sample",
		pbio.F("seq", pbio.Int), pbio.F("v", pbio.Double))
	if err != nil {
		t.Fatal(err)
	}
	reader := rctx.NewReader(cconn)
	reader.SetTimeout(2 * time.Second)
	// A live broadcast reaches only registered consumers: on a loaded box
	// the whole stream can pass the relay before it has accepted ours.
	waitFor(t, "the relay to register the consumer", func() bool { return s.Consumers() == 1 })

	pconn, err := net.Dial("tcp", prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	link := net.Conn(pconn)
	if wrap != nil {
		link = wrap(pconn)
	}
	if _, err := link.Write(stream); err != nil {
		link.Close()
		t.Logf("producer write cut short: %v", err)
	} else {
		link.Close()
	}

	for {
		m, err := reader.Read()
		if err != nil {
			// Timeout after the drain, EOF, or consumer cut — all fine;
			// the accounting below decides pass/fail.
			return delivered, traced
		}
		if _, err := m.Decode(rf); err != nil {
			t.Fatalf("delivered record failed to decode: %v", err)
		}
		delivered++
		if id, ok := m.TraceID(); ok && id != 0 {
			traced++
		}
	}
}

// tracedStream encodes n traced, checksummed records and returns the raw
// producer bytes plus the sender's span count.
func tracedStream(t *testing.T, n int) ([]byte, *tracectx.Tracer) {
	t.Helper()
	tr := tracectx.New("sender", 1, 0)
	ctx, err := pbio.NewContext(pbio.WithArch("x86"), pbio.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ctx.Register("sample",
		pbio.F("seq", pbio.Int), pbio.F("v", pbio.Double))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ctx.NewWriter(&buf)
	w.EnableChecksums()
	rec := f.NewRecord()
	for i := 0; i < n; i++ {
		rec.MustSetInt("seq", 0, int64(i))
		rec.MustSetFloat("v", 0, float64(i)*0.5)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), tr
}

// TestTraceLostSpanAccounting corrupts exactly one data frame in a traced
// stream and checks the relay's books: the surviving records keep their
// trace context, the discarded frame is counted as a lost span, and the
// relay records one span per record it actually forwarded.
func TestTraceLostSpanAccounting(t *testing.T) {
	const records = 5
	stream, _ := tracedStream(t, records)

	// Re-frame the stream, flipping one payload byte in the third data
	// frame (frame 0 is meta).  The checksum covers the body, so the
	// relay must detect and discard exactly that record.
	var frames []transport.Frame
	fr := transport.NewFrameReader(bytes.NewReader(stream))
	defer fr.Release()
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		f.Payload = append([]byte(nil), f.Payload...)
		frames = append(frames, f)
	}
	if len(frames) != records+1 {
		t.Fatalf("stream has %d frames, want meta + %d data", len(frames), records)
	}
	corrupted := 3
	frames[corrupted].Payload[len(frames[corrupted].Payload)/2] ^= 0x40
	var mangled bytes.Buffer
	fw := transport.NewFrameWriter(&mangled)
	for _, f := range frames {
		if _, err := fw.Write(f.Kind, f.FormatID, false, f.Payload); err != nil {
			t.Fatal(err)
		}
	}

	relayTr := tracectx.New("pbio-relay", 1, 0)
	s, prodAddr, consAddr := startRelay(t)
	s.SetChecksums(true)
	s.SetTracing(relayTr)

	delivered, traced := traceExchange(t, s, prodAddr, consAddr, mangled.Bytes(), nil)
	if delivered != records-1 {
		t.Fatalf("delivered %d records, want %d (one corrupted)", delivered, records-1)
	}
	if traced != delivered {
		t.Fatalf("only %d of %d delivered records kept trace context", traced, delivered)
	}
	if lost := relayTr.Lost(); lost != 1 {
		t.Fatalf("relay lost-span count = %d, want 1", lost)
	}
	spans := relayTr.Collector().Snapshot()
	if len(spans) != records-1 {
		t.Fatalf("relay recorded %d spans, want %d", len(spans), records-1)
	}
	for _, sp := range spans {
		if sp.Name != tracectx.PhaseRelay || sp.Trace == 0 {
			t.Fatalf("bad relay span: %+v", sp)
		}
	}
	st := s.Stats()
	if st.ChecksumFailures != 1 {
		t.Fatalf("relay checksum failures = %d, want 1 (stats %+v)", st.ChecksumFailures, st)
	}
}

// TestTraceSurvivesFaultnetCorruption replays a traced stream through
// faultnet's random corruption until the relay provably discards traced
// frames, asserting on every run that (a) each delivered record still
// carries trace context and (b) any shortfall between sent and forwarded
// records shows up in the lost-span or resync counters — never silently.
func TestTraceSurvivesFaultnetCorruption(t *testing.T) {
	const records = 30
	stream, _ := tracedStream(t, records)

	sawLost := false
	for seed := int64(1); seed <= 20 && !sawLost; seed++ {
		relayTr := tracectx.New("pbio-relay", 1, 0)
		s, prodAddr, consAddr := startRelay(t)
		s.SetChecksums(true)
		s.SetTracing(relayTr)

		profile := faultnet.Profile{CorruptProb: 0.002, Seed: seed}
		delivered, traced := traceExchange(t, s, prodAddr, consAddr, stream,
			func(c net.Conn) net.Conn { return faultnet.Wrap(c, profile) })

		if traced != delivered {
			t.Fatalf("seed %d: %d of %d delivered records lost trace context",
				seed, delivered, traced)
		}
		forwarded := relayTr.Collector().Len()
		lost := relayTr.Lost()
		st := s.Stats()
		if delivered > forwarded {
			t.Fatalf("seed %d: consumer got %d records but relay recorded %d spans",
				seed, delivered, forwarded)
		}
		if missing := int64(records) - int64(forwarded); missing > 0 {
			// Every record the relay did not forward must be visible in
			// the books: counted lost (detected corrupt frame of a traced
			// format), swallowed by a resync scan, or lost with the
			// producer connection itself.
			if lost == 0 && st.Resyncs == 0 && st.BadProducers == 0 {
				t.Fatalf("seed %d: %d records vanished with clean books (stats %+v)",
					seed, missing, st)
			}
		}
		if lost > 0 {
			sawLost = true
			t.Logf("seed %d: %d/%d delivered, %d lost spans, %d resyncs",
				seed, delivered, records, lost, st.Resyncs)
		}
		s.Close()
	}
	if !sawLost {
		t.Fatal("no seed in 1..20 produced a counted lost span; corruption probe ineffective")
	}
}
