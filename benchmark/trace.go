package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start-up, one
// vDSO call (time.Now makes two).
func now() int64 { return int64(time.Since(epoch)) }

// clockCost is what one now() costs, measured at start-up; a span timed
// by two stamps contains one of them.
var clockCost = func() int64 {
	const n = 200_000
	t0 := now()
	var sink int64
	for i := 0; i < n; i++ {
		sink += now()
	}
	_ = sink
	return (now() - t0) / n
}()

// spanKind names the in-situ spans the harness records around its own
// calls into the program.
type spanKind int

const (
	spanNativeSet spanKind = iota // producer: Record.MustSetInt/MustSetFloat stamps
	spanWriteConn                 // producer: Writer.Write (+Flush) on the real conn
	spanRead                      // consumer: Reader.Read minus its sock.read children
	spanSockRead                  // consumer: wrapped Conn.Read under Reader.Read
	spanDecode                    // consumer: View / DecodeInto / DecodeBatch
	spanNativeGet                 // consumer: verification Record.Int/Float
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"native.set", "pbio.write+sock.write", "pbio.read", "sock.read", "pbio.decode", "native.get",
}

// span is one frame's worth of calls into one layer.  Dur is the time
// inside those calls (self time: child spans already taken out), Start
// the frame's first stamp.
type span struct {
	Name    string `json:"name"`
	Frame   int64  `json:"frame"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Records int    `json:"records"`
}

// maxKeptSpans bounds the spans kept for the trace file; the per-layer
// sums cover every sampled frame regardless.
const maxKeptSpans = 20_000

// tracer accumulates one goroutine's spans.  The producer and the
// consumer each own one, so recording takes no lock.
type tracer struct {
	side    string // "producer" or "consumer": the parent of every span
	every   int64  // sample one frame in this many
	ns      [numSpanKinds]int64
	records [numSpanKinds]int64
	spans   []span
}

// newTracer samples every frame when a frame is one record, and one in
// eight when it is a batch: timing all 64 call pairs of every batch
// frame would slow the traced side by a third.
func newTracer(side string, batch int) *tracer {
	every := int64(1)
	if batch > 1 {
		every = 8
	}
	return &tracer{side: side, every: every, spans: make([]span, 0, maxKeptSpans)}
}

func (t *tracer) sampled(frame int64) bool { return frame%t.every == 0 }

// add records the calls one layer received during one frame: dur is the
// stamped time, calls how many stamp pairs it spans.
func (t *tracer) add(kind spanKind, frame, start, dur, calls int64, records int) {
	dur = max(dur-calls*clockCost, 0)
	t.ns[kind] += dur
	t.records[kind] += int64(records)
	if len(t.spans) < maxKeptSpans {
		parent := t.side + ".frame"
		if kind == spanSockRead {
			parent = spanNames[spanRead]
		}
		t.spans = append(t.spans, span{
			Name: spanNames[kind], Frame: frame, Parent: parent,
			StartNs: start, DurNs: dur, Records: records,
		})
	}
}

// perRecord is the mean time a layer took per record over the sampled
// frames; 0 when the layer recorded nothing.
func (t *tracer) perRecord(kind spanKind) float64 {
	if t.records[kind] == 0 {
		return 0
	}
	return float64(t.ns[kind]) / float64(t.records[kind])
}

// writeSpans writes the kept spans of both sides to dir/trace-<name>.json.
func writeSpans(dir, name string, sides ...*tracer) error {
	var all []span
	for _, t := range sides {
		all = append(all, t.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}

// timedConn wraps the read side of a conn the harness hands to pbio or
// relay: it counts and times Read and passes everything else through.
// Only conns the program reads from are ever wrapped — transport writes
// frames with net.Buffers.WriteTo, which is one writev on a *net.TCPConn
// and one Write per buffer on anything else.
//
// reads, bytes and readNs belong to the one goroutine that reads the
// conn; lastEnd alone is read from another (the relay-hop measurement).
type timedConn struct {
	net.Conn
	reads   int64
	bytes   int64
	readNs  int64        // busy + blocked
	lastEnd atomic.Int64 // now() when the latest Read returned
}

func (c *timedConn) Read(p []byte) (int, error) {
	t0 := now()
	n, err := c.Conn.Read(p)
	t1 := now()
	c.reads++
	c.bytes += int64(n)
	c.readNs += t1 - t0 - clockCost
	c.lastEnd.Store(t1)
	return n, err
}
