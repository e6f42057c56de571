// Package flightrec is the self-hosted flight recorder: an always-on,
// bounded ring of discrete events (consumer evicted, uplink redialed,
// checksum discarded, stall began...) that the metrics and tracing
// layers lose between scrapes.
//
// The journal dogfoods PBIO as its own wire format.  Each event is a
// fixed-size record held in the ring already in wire layout, so dumping
// the journal is a memcpy-and-frame loop: the self-describing
// meta-information goes out first, the records follow, and the result
// is an ordinary PBIO stream — readable by pbio-dump, pbio.Read, or any
// other consumer of the format, with no journal-specific decoder
// required.  Two journal segments concatenate into a valid stream
// (each segment re-sends meta), which is what makes the journal the
// stepping stone to a durable segmented log.
//
// Emission is lock-cheap and allocation-free: one short mutex hold to
// format ~96 bytes into a preallocated slab.  The ring drops oldest
// under pressure and counts exactly what it dropped, mirroring the
// relay's own queue discipline.
package flightrec

import (
	"sync"
	"time"

	"repro/internal/abi"
	"repro/internal/wire"
)

// FormatName names the journal record format.  The ".v1" suffix is the
// schema version: readers match fields by name through PBIO's normal
// format matching, so compatible evolution (appending fields, adding
// kinds) keeps the name, and only a breaking relayout bumps it.
const FormatName = "pbio.flight.v1"

// Field sizes fixed by the v1 schema.
const (
	nodeLen    = 24 // node identity, NUL-padded
	subjectLen = 36 // event subject (format/consumer/peer), NUL-padded
)

// schema returns the v1 event schema.  Scalars lead and the char arrays
// trail so the record packs without interior padding on every modelled
// ABI.
func schema() *wire.Schema {
	return &wire.Schema{
		Name: FormatName,
		Fields: []wire.FieldSpec{
			{Name: "ts_nanos", Type: abi.ULongLong, Count: 1}, // UnixNano of the event
			{Name: "trace", Type: abi.ULongLong, Count: 1},    // PR-4 trace ID, 0 = untraced
			{Name: "arg1", Type: abi.LongLong, Count: 1},      // kind-specific scalar
			{Name: "arg2", Type: abi.LongLong, Count: 1},      // kind-specific scalar
			{Name: "kind", Type: abi.Int, Count: 1},           // Kind enum value
			{Name: "node", Type: abi.Char, Count: nodeLen},    // emitting node's identity
			{Name: "subject", Type: abi.Char, Count: subjectLen},
		},
	}
}

// journalFormat lays the schema out once, for x86-64: the journal's
// byte order is fixed little-endian regardless of the recording host,
// because the recorder formats fields explicitly rather than storing
// through native pointers.  Self-describing meta makes that choice
// invisible to readers — a big-endian consumer converts, exactly as it
// would for any foreign stream.
var journalFormat = wire.MustLayout(schema(), &abi.X86x64)

// field offsets within a record, resolved from the layout so the
// formatter can never drift from the meta it advertises.
var (
	offTS      = fieldOffset("ts_nanos")
	offTrace   = fieldOffset("trace")
	offArg1    = fieldOffset("arg1")
	offArg2    = fieldOffset("arg2")
	offKind    = fieldOffset("kind")
	offNode    = fieldOffset("node")
	offSubject = fieldOffset("subject")
)

func fieldOffset(name string) int {
	c := journalFormat.Cursor(name)
	if c == nil {
		panic("flightrec: schema field missing: " + name)
	}
	return c.Off
}

// Recorder is a bounded in-memory event journal.  All methods are safe
// for concurrent use and safe on a nil receiver (every call a no-op),
// so instrumented layers hold a *Recorder unconditionally and pay one
// nil check when recording is off.
type Recorder struct {
	mu   sync.Mutex
	slab []byte // capRecs × recSize, slots prefilled with the node field
	cap  uint64 // capacity in records
	seq  uint64 // events ever emitted; slot = seq % cap
	node string

	// now is the clock, swappable for deterministic tests.
	now func() int64
}

var recSize = journalFormat.Size

// New returns a recorder identified as node with room for capRecords
// events (minimum 16).  The node identity is stamped into every slot up
// front, so Emit never touches it.
func New(node string, capRecords int) *Recorder {
	if capRecords < 16 {
		capRecords = 16
	}
	r := &Recorder{
		slab: make([]byte, capRecords*recSize),
		cap:  uint64(capRecords),
		node: node,
		now:  func() int64 { return time.Now().UnixNano() },
	}
	for i := 0; i < capRecords; i++ {
		putPadded(r.slab[i*recSize+offNode:], node, nodeLen)
	}
	return r
}

// Format returns the journal's laid-out record format — what a journal
// stream's meta-information will describe.
func (r *Recorder) Format() *wire.Format { return journalFormat }

// putPadded copies up to n bytes of s into b[:n], NUL-padding the rest.
// Overlong values truncate; the journal favors bounded records over
// unbounded strings.
func putPadded(b []byte, s string, n int) {
	k := copy(b[:n], s)
	for ; k < n; k++ {
		b[k] = 0
	}
}

// Emit appends one event to the ring, overwriting the oldest when full.
// It allocates nothing and holds the ring lock only while formatting
// the fixed-size record, so it is safe from connection handlers, evict
// callbacks and scrape paths alike.
//
//pbio:hotpath noalloc=0 event emission; fixed-size format into a preallocated slab
func (r *Recorder) Emit(k Kind, subject string, trace uint64, arg1, arg2 int64) {
	if r == nil {
		return
	}
	ts := r.now()
	r.mu.Lock()
	b := r.slab[(r.seq%r.cap)*uint64(recSize):]
	abi.LittleEndian.PutUint64(b[offTS:], uint64(ts))
	abi.LittleEndian.PutUint64(b[offTrace:], trace)
	abi.LittleEndian.PutUint64(b[offArg1:], uint64(arg1))
	abi.LittleEndian.PutUint64(b[offArg2:], uint64(arg2))
	abi.LittleEndian.PutUint32(b[offKind:], uint32(k))
	putPadded(b[offSubject:], subject, subjectLen)
	r.seq++
	r.mu.Unlock()
}

// Seq returns the number of events ever emitted (0 for nil).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns the number of events currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.seq, r.cap))
}

// Dropped returns how many events the ring has overwritten — exact
// accounting for what a journal dump can no longer show.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq > r.cap {
		return r.seq - r.cap
	}
	return 0
}

// snapshot copies the ring's live records, oldest first, into a fresh
// buffer and reports the sequence number of the first record returned.
// The lock is held only for the copy; callers stream the snapshot with
// no lock held.
func (r *Recorder) snapshot() (recs []byte, first uint64) {
	r.mu.Lock()
	n := min(r.seq, r.cap)
	first = r.seq - n
	recs = make([]byte, int(n)*recSize)
	for i := uint64(0); i < n; i++ {
		src := ((first + i) % r.cap) * uint64(recSize)
		copy(recs[int(i)*recSize:], r.slab[src:src+uint64(recSize)])
	}
	r.mu.Unlock()
	return recs, first
}

// --- sink adapters ---------------------------------------------------
//
// transport sits below flightrec in the import graph and cannot import
// it; it defines a sink interface (transport.FlightSink) instead, which
// these adapters satisfy.  Everything is nil-safe, so a nil *Recorder is
// a valid sink.

// ChecksumFailure records a frame discarded for a CRC mismatch.
func (r *Recorder) ChecksumFailure(subject string) { r.Emit(KindChecksumFailure, subject, 0, 0, 0) }

// DeadlineTimeout records a read or write that hit its deadline.
func (r *Recorder) DeadlineTimeout(subject string) { r.Emit(KindDeadlineTimeout, subject, 0, 0, 0) }

// FormatLearned records a reader binding a format new to its stream.
func (r *Recorder) FormatLearned(subject string) { r.Emit(KindFormatLearned, subject, 0, 0, 0) }

// batchShapeBits is the field width of each count in a packed batch
// shape word; counts are clamped, never truncated mod 2^20, so a
// saturated field reads as "at least".
const batchShapeBits = 20

// BatchShape packs a compiled program's fused shape — run-op count,
// word-wide swap ops per record, per-record step fallbacks — into the
// arg2 word of a KindDCGCompile event (arg1 is the compile latency):
// three 20-bit fields, run-op count highest.  Compiles are rare, so the
// shape rides in the journal itself and pbio-dump can show what the
// fusion pass produced without the program in hand.
func BatchShape(runs, fusedWords, stepFallbacks int64) int64 {
	clamp := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		if max := int64(1)<<batchShapeBits - 1; v > max {
			return max
		}
		return v
	}
	return clamp(runs)<<(2*batchShapeBits) | clamp(fusedWords)<<batchShapeBits | clamp(stepFallbacks)
}

// UnpackBatchShape splits a BatchShape word back into its counts.
func UnpackBatchShape(v int64) (runs, fusedWords, stepFallbacks int64) {
	const mask = int64(1)<<batchShapeBits - 1
	return v >> (2 * batchShapeBits) & mask, v >> batchShapeBits & mask, v & mask
}
