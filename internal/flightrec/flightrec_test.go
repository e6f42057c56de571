package flightrec

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenJournal writes the fixed event sequence behind
// testdata/journal_v1.pbio.  golden_test.go (external package) decodes
// the committed file with the plain pbio read path and asserts these
// exact values, so any drift in layout, framing or field order fails
// both sides.
func goldenJournal() []byte {
	r := New("golden-node", 16)
	var tick int64
	r.now = func() int64 {
		tick++
		return 1_700_000_000_000_000_000 + tick
	}
	r.Emit(KindConsumerJoin, "consumer-1", 0, 1, 0)
	r.Emit(KindQueueEvict, "tick", 0x1234, 5, 2)
	r.Emit(KindUplinkRedial, "127.0.0.1:7851", 0, 1_000_000_000, 0)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func TestGoldenJournalStable(t *testing.T) {
	got := goldenJournal()
	path := filepath.Join("testdata", "journal_v1.pbio")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestGoldenJournalStable -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal encoding drifted from the committed golden file (%d vs %d bytes); "+
			"if the change is intentional, bump FormatName and regenerate with -update",
			len(got), len(want))
	}
}

// testRecorder returns a recorder with a deterministic clock: the Nth
// emission is stamped base+N nanoseconds.
func testRecorder(node string, capRecords int) *Recorder {
	r := New(node, capRecords)
	var tick int64
	r.now = func() int64 {
		tick++
		return 1_000_000_000 + tick
	}
	return r
}

func TestEmitDecodeRoundTrip(t *testing.T) {
	r := testRecorder("node-a", 64)
	r.Emit(KindQueueEvict, "tick", 0xabcd, 7, 3)
	r.Emit(KindStallOnset, "127.0.0.1:9999", 0, 12, 0)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(events))
	}
	e := events[0]
	if e.TS != 1_000_000_001 || e.Node != "node-a" || e.Kind != KindQueueEvict ||
		e.Subject != "tick" || e.Trace != 0xabcd || e.Arg1 != 7 || e.Arg2 != 3 {
		t.Errorf("event 0 = %+v", e)
	}
	if events[1].Kind != KindStallOnset || events[1].Arg1 != 12 {
		t.Errorf("event 1 = %+v", events[1])
	}
}

func TestRingWrapDropsOldestExactly(t *testing.T) {
	r := testRecorder("n", 16)
	for i := 0; i < 20; i++ {
		r.Emit(KindConnOpen, "c", 0, int64(i), 0)
	}
	if r.Seq() != 20 || r.Len() != 16 || r.Dropped() != 4 {
		t.Fatalf("seq=%d len=%d dropped=%d, want 20/16/4", r.Seq(), r.Len(), r.Dropped())
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 16 {
		t.Fatalf("journal has %d events, want 16", len(events))
	}
	for i, e := range events {
		if want := int64(i + 4); e.Arg1 != want {
			t.Fatalf("event %d has arg1=%d, want %d (oldest-first after wrap)", i, e.Arg1, want)
		}
	}
}

func TestOverlongFieldsTruncate(t *testing.T) {
	long := strings.Repeat("x", 100)
	r := testRecorder(long, 16)
	r.Emit(KindFmtRegister, long, 0, 0, 0)
	var buf bytes.Buffer
	r.WriteTo(&buf)
	events, err := ReadJournal(&buf)
	if err != nil || len(events) != 1 {
		t.Fatalf("events=%d err=%v", len(events), err)
	}
	if got := events[0].Node; got != long[:nodeLen] {
		t.Errorf("node = %q (%d bytes), want %d-byte truncation", got, len(got), nodeLen)
	}
	if got := events[0].Subject; got != long[:subjectLen] {
		t.Errorf("subject = %q (%d bytes), want %d-byte truncation", got, len(got), subjectLen)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(KindConnOpen, "x", 0, 0, 0)
	r.ChecksumFailure("x")
	r.DeadlineTimeout("x")
	if r.Seq() != 0 || r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports non-zero accounting")
	}
	if n, err := r.WriteTo(io.Discard); n != 0 || err != nil {
		t.Errorf("nil WriteTo = %d, %v", n, err)
	}
	if d := r.DrainTo(io.Discard, time.Second); d != nil {
		t.Error("nil DrainTo returned a drainer")
	}
	if _, err := (*Drainer)(nil).Stop(); err != nil {
		t.Errorf("nil drainer Stop: %v", err)
	}
	stop := r.DumpOnSignal("unused")
	stop()
}

func TestEmptyJournalIsValidStream(t *testing.T) {
	r := testRecorder("n", 16)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty journal wrote zero bytes; want a meta-only stream")
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("empty journal decoded %d events", len(events))
	}
}

func TestJournalSegmentsConcatenate(t *testing.T) {
	r := testRecorder("n", 16)
	var both bytes.Buffer
	r.Emit(KindConnOpen, "a", 0, 0, 0)
	if _, err := r.WriteTo(&both); err != nil {
		t.Fatal(err)
	}
	r.Emit(KindConnClose, "a", 0, 0, 0)
	if _, err := r.WriteTo(&both); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&both)
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1 holds event 1; segment 2 holds events 1 and 2.
	if len(events) != 3 {
		t.Fatalf("concatenated segments decoded %d events, want 3", len(events))
	}
	if events[0].Kind != KindConnOpen || events[2].Kind != KindConnClose {
		t.Errorf("events = %v", events)
	}
}

func TestReadJournalTruncated(t *testing.T) {
	r := testRecorder("n", 16)
	for i := 0; i < 8; i++ {
		r.Emit(KindConnOpen, "c", 0, int64(i), 0)
	}
	var buf bytes.Buffer
	r.WriteTo(&buf)
	whole := buf.Bytes()
	full, err := ReadJournal(bytes.NewReader(whole))
	if err != nil || len(full) != 8 {
		t.Fatalf("full read: %d events, %v", len(full), err)
	}
	// Every truncation point must yield a prefix of the full decode and
	// never panic; mid-record cuts may or may not report an error, but
	// can never fabricate events.
	for cut := 0; cut < len(whole); cut += 7 {
		events, _ := ReadJournal(bytes.NewReader(whole[:cut]))
		if len(events) > len(full) {
			t.Fatalf("cut %d decoded %d events, more than the full stream", cut, len(events))
		}
		for i, e := range events {
			if e != full[i] {
				t.Fatalf("cut %d event %d = %+v, want %+v", cut, i, e, full[i])
			}
		}
	}
}

func TestDrainToFollowsRing(t *testing.T) {
	leakcheck.Check(t)
	r := testRecorder("n", 16)
	var buf bytes.Buffer
	// A huge interval: only Stop's final pass writes, so the buffer is
	// never touched concurrently with our reads below.
	d := r.DrainTo(&buf, time.Hour)
	for i := 0; i < 10; i++ {
		r.Emit(KindConnOpen, "c", 0, int64(i), 0)
	}
	lost, err := d.Stop()
	if err != nil || lost != 0 {
		t.Fatalf("Stop = %d lost, %v", lost, err)
	}
	events, err := ReadJournal(&buf)
	if err != nil || len(events) != 10 {
		t.Fatalf("drained %d events, err %v; want 10", len(events), err)
	}
	if again, err := d.Stop(); again != 0 || err != nil {
		t.Errorf("second Stop = %d, %v", again, err)
	}
}

func TestDrainToCountsOverwrittenEvents(t *testing.T) {
	leakcheck.Check(t)
	r := testRecorder("n", 16)
	var buf bytes.Buffer
	d := r.DrainTo(&buf, time.Hour)
	// 40 events through a 16-slot ring before the only pass runs: the
	// first 24 are gone, and the drainer must say exactly that.
	for i := 0; i < 40; i++ {
		r.Emit(KindConnOpen, "c", 0, int64(i), 0)
	}
	lost, err := d.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 24 {
		t.Errorf("drainer lost %d events, want 24", lost)
	}
	events, err := ReadJournal(&buf)
	if err != nil || len(events) != 16 {
		t.Fatalf("drained %d events, err %v; want 16", len(events), err)
	}
	if events[0].Arg1 != 24 {
		t.Errorf("first drained event arg1=%d, want 24", events[0].Arg1)
	}
}

func FuzzReadJournal(f *testing.F) {
	r := testRecorder("fuzz-node", 16)
	r.Emit(KindQueueEvict, "tick", 0xdead, 3, 1)
	r.Emit(KindStallOnset, "consumer", 0, 9, 0)
	var buf bytes.Buffer
	r.WriteTo(&buf)
	whole := buf.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(whole[1:])
	f.Add([]byte{})
	corrupt := append([]byte(nil), whole...)
	for i := 7; i < len(corrupt); i += 13 {
		corrupt[i] ^= 0x5a
	}
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _ := ReadJournal(bytes.NewReader(data))
		if len(events) > maxJournalEvents {
			t.Fatalf("decoded %d events past the bound", len(events))
		}
	})
}
