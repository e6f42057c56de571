package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/abi"
	"repro/internal/bench"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
	"repro/pbio"
)

// decodeKind is the consumer-side entry point a workload exercises.
type decodeKind int

const (
	decodeView  decodeKind = iota // Message.View per record (no conversion)
	decodeInto                    // Message.DecodeInto per record
	decodeBatch                   // Message.DecodeBatch per frame
)

// workload is one row of the benchmark's workload table.  README.md
// explains why each exists and which layers it does and does not reach.
type workload struct {
	name, why            string
	sender, receiver     string // abi architecture names
	values               int    // values[] length of the single format; 0 on format_mix
	batch                int    // records per frame
	relay                bool   // producer → relay.Server → consumer
	checksums            bool
	decode               decodeKind
	formats              int // distinct formats, round-robin
	extendEvery          int // every n-th sender format carries one unexpected field
	minValues, maxValues int // format_mix: values[] lengths span this range, log-spaced
}

// small and large are the paper's 100 B and 100 KB mixed records: 104 B
// and 100 000 B on x86-64.
const (
	smallValues = 7
	largeValues = 12494
	frameBatch  = 64
)

var workloads = []workload{
	{
		name: "small_batch_swap", sender: "sparc-v8", receiver: "x86-64",
		values: smallValues, batch: frameBatch, decode: decodeBatch, formats: 1,
		why: "100 B records in 64-record batch frames, byte-swapped by the batch DCG kernels: per-record costs dominate, framing is amortised, relay idle",
	},
	{
		name: "small_batch_view", sender: "x86-64", receiver: "x86-64",
		values: smallValues, batch: frameBatch, decode: decodeView, formats: 1,
		why: "same batch frames, same layout both ends, View per record: the paper's no-conversion best case; bypasses convert and dcg entirely",
	},
	{
		name: "small_single_relay", sender: "x86-64", receiver: "x86-64", relay: true,
		values: smallValues, batch: 1, decode: decodeView, formats: 1,
		why: "100 B records, one per frame, through relay.Server: per-frame framing, relay ingest/queue/pump, bufpool and socket calls dominate; no conversion",
	},
	{
		name: "large_single_swap", sender: "sparc-v8", receiver: "x86-64",
		values: largeValues, batch: 1, decode: decodeInto, formats: 1,
		why: "100 KB records, one per frame, byte-swapped by the per-record DCG program: bytes dominate, per-record overhead vanishes; no batching, no relay",
	},
	{
		name: "format_mix", sender: "sparc-v9-64", receiver: "x86",
		batch: 1, decode: decodeInto, formats: 32, extendEvery: 4, checksums: true,
		minValues: smallValues, maxValues: 1244,
		why: "32 formats of 100 B to 10 KB round-robin with CRC32-C, long 8 to 4 and an unexpected field: every record misses the reader's one-entry memo and pays fingerprint plus cache lookup",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pbioTypes maps the C types of the mixed record to pbio's public enum.
var pbioTypes = map[abi.CType]pbio.Type{
	abi.Char: pbio.Char, abi.Int: pbio.Int, abi.Long: pbio.Long, abi.UInt: pbio.UInt,
	abi.Float: pbio.Float, abi.Double: pbio.Double,
}

func specsOf(s *wire.Schema) []pbio.FieldSpec {
	out := make([]pbio.FieldSpec, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = pbio.FieldSpec{Name: f.Name, Type: pbioTypes[f.Type], Count: f.Count}
	}
	return out
}

// formatDef is one format of a workload: what the sender registers, what
// the receiver expects, and the sender's filled record image.
type formatDef struct {
	name     string
	values   int
	sendSch  *wire.Schema
	recvSch  *wire.Schema
	sendWF   *wire.Format // sender layout (wire format)
	recvWF   *wire.Format // receiver layout (expected native format)
	template []byte       // FillDeterministic image in sender layout
	meta     []byte       // sendWF's meta block
	interp   *convert.Interp
}

// fixtures are everything derived from (workload, seed) before any clock
// starts: schemas, layouts, filled record images and the interpreted
// oracle.  The program under test receives only these generated inputs.
type fixtures struct {
	w    *workload
	seed uint64
	fmts []formatDef
	// meanRecord is the mean sender-side record size over one round.
	meanRecord float64
}

func newFixtures(w *workload, seed uint64) (*fixtures, error) {
	sa, err := abi.ByName(w.sender)
	if err != nil {
		return nil, err
	}
	ra, err := abi.ByName(w.receiver)
	if err != nil {
		return nil, err
	}
	fx := &fixtures{w: w, seed: seed, fmts: make([]formatDef, w.formats)}
	// format_mix: a fixed log-spaced grid of sizes, dealt to the formats
	// in a seed-dependent order.  The set of sizes (and so bytes per
	// round and wire_bytes_per_record) is the same for every seed; which
	// format has which size is not.
	lengths := []int{w.values}
	if w.formats > 1 {
		lengths = make([]int, w.formats)
		ratio := float64(w.maxValues) / float64(w.minValues)
		for i := range lengths {
			lengths[i] = int(math.Round(float64(w.minValues) * math.Pow(ratio, float64(i)/float64(w.formats-1))))
		}
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(lengths), func(i, j int) {
			lengths[i], lengths[j] = lengths[j], lengths[i]
		})
	}
	total := 0
	for i := range fx.fmts {
		d := &fx.fmts[i]
		d.values = lengths[i]
		d.name = "mixed"
		if w.formats > 1 {
			d.name = fmt.Sprintf("mix%02d", i)
		}
		d.recvSch = bench.MixedSchema(d.values)
		d.sendSch = bench.MixedSchema(d.values)
		if w.extendEvery > 0 && i%w.extendEvery == 0 {
			d.sendSch = bench.ExtendedMixedSchema(d.values)
		}
		d.recvSch.Name, d.sendSch.Name = d.name, d.name
		if d.sendWF, err = wire.Layout(d.sendSch, &sa); err != nil {
			return nil, err
		}
		if d.recvWF, err = wire.Layout(d.recvSch, &ra); err != nil {
			return nil, err
		}
		rec := native.New(d.sendWF)
		native.FillDeterministic(rec, int64(seed%30000)+int64(i))
		rec.MustSetInt("node", 0, int64(i))
		d.template = rec.Buf
		d.meta = wire.EncodeMeta(d.sendWF)
		plan, err := convert.NewPlan(d.sendWF, d.recvWF)
		if err != nil {
			return nil, err
		}
		d.interp = convert.NewInterp(plan)
		total += d.sendWF.Size
	}
	fx.meanRecord = float64(total) / float64(len(fx.fmts))
	return fx, nil
}

// mix64 is splitmix64's finaliser: the per-record pseudo-random source
// both ends derive expected contents from.
func mix64(seed uint64, seq int64) uint64 {
	z := seed + uint64(seq)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sentinel in the iter field marks the end of a phase in band, so the
// consumer never has to guess whether more records are in flight.
const sentinel = -1

// stamp writes record seq's varying contents: its sequence number and
// three seed-derived values, one of which the consumer will check.
func stamp(rec *pbio.Record, seed uint64, seq int64, values int) {
	h := mix64(seed, seq)
	rec.MustSetInt("iter", 0, seq)
	rec.MustSetInt("flags", 0, int64(uint32(h)))
	rec.MustSetFloat("timestamp", 0, float64(seq)*0.5)
	rec.MustSetFloat("values", int((h>>32)%uint64(values)), float64(h>>40))
}

// check verifies record seq: sequence continuity plus one pseudo-randomly
// chosen field.  It returns the sequence number the record carries.
func check(rec *pbio.Record, seed uint64, seq int64, values int) (got int64, ok bool) {
	got, err := rec.Int("iter", 0)
	if err != nil || got != seq {
		return got, false
	}
	h := mix64(seed, seq)
	switch h & 3 {
	case 0:
		v, err := rec.Int("flags", 0)
		return got, err == nil && v == int64(uint32(h))
	case 1:
		v, err := rec.Float("timestamp", 0)
		return got, err == nil && v == float64(seq)*0.5
	default:
		v, err := rec.Float("values", int((h>>32)%uint64(values)))
		return got, err == nil && v == float64(h>>40)
	}
}

// producer is the sending application: one context in the sender's
// architecture, one record per format, one pbio.Writer.
type producer struct {
	fx   *fixtures
	fmts []*pbio.Format
	recs []*pbio.Record
	wr   *pbio.Writer
	seq  int64 // next sequence number; also records written so far
	// sent publishes seq, frame by frame, to the consumer's window cuts.
	sent atomic.Int64

	sentinels int64

	tr    *tracer // nil on untraced runs
	frame int64
}

func newProducer(fx *fixtures, sink io.Writer) (*producer, error) {
	ctx, err := pbio.NewContext(pbio.WithArch(fx.w.sender))
	if err != nil {
		return nil, err
	}
	p := &producer{fx: fx}
	for i := range fx.fmts {
		d := &fx.fmts[i]
		f, err := ctx.Register(d.name, specsOf(d.sendSch)...)
		if err != nil {
			return nil, err
		}
		rec := f.NewRecord()
		copy(rec.Bytes(), d.template)
		p.fmts, p.recs = append(p.fmts, f), append(p.recs, rec)
	}
	p.wr = ctx.NewWriter(sink)
	if fx.w.checksums {
		p.wr.EnableChecksums()
	}
	if fx.w.batch > 1 {
		if err := p.wr.SetBatching(fx.w.batch*p.fmts[0].Size(), 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// writeFrame stamps and writes one frame's worth of records.  On a traced
// run sampled frames time every call; the calls themselves are the same.
func (p *producer) writeFrame() error {
	timed := p.tr != nil && p.tr.sampled(p.frame)
	var setNs, writeNs, t0, t1 int64
	start := int64(0)
	if timed {
		start = now()
	}
	n := int64(len(p.recs))
	for i := 0; i < p.fx.w.batch; i++ {
		k := 0
		if n > 1 {
			k = int(p.seq % n)
		}
		rec := p.recs[k]
		if timed {
			t0 = now()
		}
		stamp(rec, p.fx.seed, p.seq, p.fx.fmts[k].values)
		if timed {
			t1 = now()
			setNs += t1 - t0
		}
		if err := p.wr.Write(rec); err != nil {
			return err
		}
		if timed {
			writeNs += now() - t1
		}
		p.seq++
	}
	if p.fx.w.batch > 1 {
		if timed {
			t1 = now()
		}
		if err := p.wr.Flush(); err != nil {
			return err
		}
		if timed {
			writeNs += now() - t1
		}
	}
	if timed {
		calls := int64(p.fx.w.batch)
		p.tr.add(spanNativeSet, p.frame, start, setNs, calls, p.fx.w.batch)
		p.tr.add(spanWriteConn, p.frame, start, writeNs, calls, p.fx.w.batch)
	}
	p.frame++
	p.sent.Store(p.seq)
	return nil
}

// writeSentinel ends a phase: one record (of the format whose turn it
// is) whose iter is the sentinel, flushed on its own so that the next
// phase starts on a frame boundary.
func (p *producer) writeSentinel() error {
	rec := p.recs[p.seq%int64(len(p.recs))]
	rec.MustSetInt("iter", 0, sentinel)
	if err := p.wr.Write(rec); err != nil {
		return err
	}
	p.sentinels++
	return p.wr.Flush()
}

// consumer is the receiving application: one context in the receiver's
// architecture, the formats it expects, and the correctness oracle.
type consumer struct {
	fx   *fixtures
	fmts []*pbio.Format
	out  []*pbio.Record    // decodeInto destinations
	bat  *pbio.RecordBatch // decodeBatch destination
	rd   *pbio.Reader

	// srcFmts describe the sender's layouts; View through them exposes a
	// message's wire bytes to the oracle.  want and head are its scratch:
	// the interpreted conversion, and a batch frame's first wire record.
	srcFmts    []*pbio.Format
	want, head []byte

	seq      int64 // next expected sequence number; also records verified
	failed   int64
	oracled  int64
	firstErr string

	tr    *tracer
	rconn *timedConn // traced runs: the conn the reader reads from
	frame int64
}

func newConsumer(fx *fixtures, src io.Reader) (*consumer, error) {
	ctx, err := pbio.NewContext(pbio.WithArch(fx.w.receiver))
	if err != nil {
		return nil, err
	}
	c := &consumer{fx: fx}
	for i := range fx.fmts {
		d := &fx.fmts[i]
		f, err := ctx.Register(d.name, specsOf(d.recvSch)...)
		if err != nil {
			return nil, err
		}
		c.fmts = append(c.fmts, f)
		if fx.w.decode == decodeInto {
			c.out = append(c.out, f.NewRecord())
		}
	}
	if fx.w.decode == decodeBatch {
		c.bat = c.fmts[0].NewRecordBatch()
	}
	c.rd = ctx.NewReader(src)
	return c, nil
}

// armOracle registers the sender's layouts on the consumer side.  It is
// harness equipment, not part of the exchange, so cold starts call it
// outside the timed region.
func (c *consumer) armOracle() error {
	octx, err := pbio.NewContext(pbio.WithArch(c.fx.w.sender))
	if err != nil {
		return err
	}
	recvMax, sendMax := 0, 0
	for i := range c.fx.fmts {
		d := &c.fx.fmts[i]
		f, err := octx.Register(d.name, specsOf(d.sendSch)...)
		if err != nil {
			return err
		}
		c.srcFmts = append(c.srcFmts, f)
		recvMax, sendMax = max(recvMax, d.recvWF.Size), max(sendMax, d.sendWF.Size)
	}
	c.want, c.head = make([]byte, recvMax), make([]byte, sendMax)
	return nil
}

func (c *consumer) fail(format string, args ...any) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
}

// wireBytes returns the message's record as transmitted.
func (c *consumer) wireBytes(msg *pbio.Message, k int) []byte {
	src, ok, err := msg.View(c.srcFmts[k])
	if err != nil || !ok {
		c.fail("oracle: message of %q is not in the sender's layout (ok=%v err=%v)", msg.FormatName(), ok, err)
		return nil
	}
	return src.Bytes()
}

// oracle byte-compares a decoded record against convert.Interp run on
// the same wire bytes.
func (c *consumer) oracle(k int, src, decoded []byte) {
	if src == nil {
		return
	}
	d := &c.fx.fmts[k]
	want := c.want[:d.recvWF.Size]
	clear(want)
	if err := d.interp.Convert(want, src); err != nil {
		c.fail("oracle: interp: %v", err)
		return
	}
	if !bytes.Equal(want, decoded) {
		c.fail("oracle: record %d of %q differs from the interpreted conversion", c.seq, d.name)
	}
	c.oracled++
}

const oracleEvery = 1024

// verify checks one decoded record and advances the expected sequence.
// It reports whether the record was the phase sentinel.
func (c *consumer) verify(rec *pbio.Record, k int) (end bool) {
	got, ok := check(rec, c.fx.seed, c.seq, c.fx.fmts[k].values)
	if ok {
		c.seq++
		return false
	}
	if got == sentinel {
		return true
	}
	c.fail("record %d of %q: carries iter %d or a wrong field value", c.seq, c.fx.fmts[k].name, got)
	if got > c.seq {
		// Records c.seq..got-1 were sent and never delivered.
		c.failed += got - c.seq
		c.seq = got
	}
	c.seq++
	return false
}

// readFrame reads, decodes and verifies one frame's worth of records.
// It returns the number of records delivered and whether the frame was
// the phase sentinel.
func (c *consumer) readFrame() (n int, end bool, err error) {
	w := c.fx.w
	timed := c.tr != nil && c.tr.sampled(c.frame)
	var readNs, sockNs, decNs, getNs, t0, t1, t2 int64
	var start, sock0, reads0, sockReads int64
	if timed {
		start = now()
	}
	nf := int64(len(c.fmts))
	for n < w.batch && !end {
		k := 0
		if nf > 1 {
			k = int(c.seq % nf)
		}
		if timed {
			t0 = now()
			sock0, reads0 = c.rconn.readNs, c.rconn.reads
		}
		msg, err := c.rd.Read()
		if err != nil {
			return n, false, err
		}
		if timed {
			t1 = now()
			readNs += t1 - t0
			sockNs += c.rconn.readNs - sock0
			sockReads += c.rconn.reads - reads0
		}
		if msg.FormatName() != c.fx.fmts[k].name {
			c.fail("record %d arrived as %q, want %q", c.seq, msg.FormatName(), c.fx.fmts[k].name)
		}
		audit := c.seq%oracleEvery == 0
		switch w.decode {
		case decodeBatch:
			var head []byte
			if audit {
				// Copied before the decode: DecodeBatch consumes the frame.
				head = c.head[:copy(c.head, c.wireBytes(msg, k))]
			}
			got, err := msg.DecodeBatch(c.fmts[k], c.bat)
			if err != nil {
				return n, false, err
			}
			if timed {
				t2 = now()
				decNs += t2 - t1
			}
			if len(head) > 0 {
				c.oracle(k, head, c.bat.Bytes(0))
			}
			for i := 0; i < got && !end; i++ {
				end = c.verify(c.bat.View(i), k)
			}
			n += got
		case decodeInto:
			out := c.out[k]
			if err := msg.DecodeInto(c.fmts[k], out); err != nil {
				return n, false, err
			}
			if timed {
				t2 = now()
				decNs += t2 - t1
			}
			if audit {
				c.oracle(k, c.wireBytes(msg, k), out.Bytes())
			}
			end = c.verify(out, k)
			n++
		default:
			rec, ok, err := msg.View(c.fmts[k])
			if err != nil || !ok {
				return n, false, fmt.Errorf("view of %q refused (ok=%v): %v", msg.FormatName(), ok, err)
			}
			if timed {
				t2 = now()
				decNs += t2 - t1
			}
			if audit {
				c.oracle(k, c.wireBytes(msg, k), rec.Bytes())
			}
			end = c.verify(rec, k)
			n++
		}
		if timed {
			getNs += now() - t2
		}
	}
	if end {
		n--
	}
	if timed && !end {
		calls := int64(1)
		if w.decode != decodeBatch {
			calls = int64(n)
		}
		// Each wrapped Read under Reader.Read put one more stamp into it.
		c.tr.add(spanRead, c.frame, start, readNs-sockNs, calls+sockReads, n)
		c.tr.add(spanSockRead, c.frame, start, sockNs, 0, n)
		c.tr.add(spanDecode, c.frame, start, decNs, calls, n)
		c.tr.add(spanNativeGet, c.frame, start, getNs, calls, n)
	}
	c.frame++
	return n, end, nil
}
