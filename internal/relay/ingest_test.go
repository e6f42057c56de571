package relay

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The ingest is driven here from in-memory byte streams: no socket, no
// goroutine, no sleep.  A consumer queue registered by hand stands in for
// the fan-out, so what run() broadcast is what the queue holds when it
// returns.

// ingested is one frame the ingest broadcast.
type ingested struct {
	kind    byte
	relayID uint32
	recs    int
}

// runIngest feeds stream to an ingest of s and returns the frames it
// broadcast, in order.
func runIngest(t *testing.T, s *Server, stream []byte, u *Uplink) []ingested {
	t.Helper()
	c := &consumer{all: true}
	c.q = newFrameQueue(4096, PolicyDisconnect, nil)
	s.mu.Lock()
	s.consumers[c] = true
	s.mu.Unlock()
	s.newIngest(bytes.NewReader(stream), u).run()
	s.mu.Lock()
	delete(s.consumers, c)
	s.mu.Unlock()
	var out []ingested
	for c.q.state().depth > 0 {
		of, _ := c.q.pop()
		out = append(out, ingested{of.f.Kind, of.f.FormatID, of.recs})
		of.owner.release()
	}
	return out
}

// streamBuilder stages a producer stream frame by frame.
type streamBuilder struct {
	t   *testing.T
	buf bytes.Buffer
	fw  *transport.FrameWriter
}

func newStream(t *testing.T) *streamBuilder {
	sb := &streamBuilder{t: t}
	sb.fw = transport.NewFrameWriter(&sb.buf)
	return sb
}

func (sb *streamBuilder) frame(kind byte, id uint32, sum bool, payload ...[]byte) *streamBuilder {
	if _, err := sb.fw.Write(kind, id, sum, payload...); err != nil {
		sb.t.Fatal(err)
	}
	return sb
}

func (sb *streamBuilder) meta(id uint32, f *wire.Format) *streamBuilder {
	return sb.frame(transport.FrameMeta, id, false, wire.EncodeMeta(f))
}

// data appends n single-record frames of f, checksummed when sum is set.
func (sb *streamBuilder) data(id uint32, f *wire.Format, n int, sum bool) *streamBuilder {
	for i := 0; i < n; i++ {
		sb.frame(transport.FrameData, id, sum, record(f, int64(i)))
	}
	return sb
}

// corrupt flips one bit in the body of the last frame written, so a
// checksummed frame no longer verifies.
func (sb *streamBuilder) corrupt() *streamBuilder {
	b := sb.buf.Bytes()
	b[len(b)-1] ^= 0x40
	return sb
}

func (sb *streamBuilder) raw(b []byte) *streamBuilder {
	sb.buf.Write(b)
	return sb
}

// record is a seeded record image of f with live trace context when f
// carries the trace field.
func record(f *wire.Format, seed int64) []byte {
	rec := native.New(f)
	native.FillDeterministic(rec, seed)
	if off := wire.TraceFieldOffset(f); off >= 0 {
		wire.PutTraceContext(rec.Buf, f.Order, off, wire.TraceContext{TraceID: uint64(seed + 1), ParentSpan: 1})
	}
	return rec.Buf
}

func TestIngestContainsCorruption(t *testing.T) {
	tick := tickFormat(t)
	traced := wire.MustLayout(wire.TraceSchema(goldenMixed()), &abi.SparcV8)
	data := byte(transport.FrameData)

	cases := []struct {
		name   string
		uplink bool
		stream func(sb *streamBuilder)
		want   []ingested // data frames forwarded (meta broadcasts are checked by count)

		resyncs, sumFailures, badProducers, lost int64
		cause                                    string // substring of LastProducerError
		peer                                     string // uplink: upstream identity learned
	}{
		{
			name: "bad magic resyncs and continues",
			stream: func(sb *streamBuilder) {
				sb.meta(1, tick).data(1, tick, 1, false).raw([]byte("XXXXXXXXXXXXXXXXXXXXXXX")).data(1, tick, 1, false)
			},
			want:    []ingested{{data, 1, 1}, {data, 1, 1}},
			resyncs: 1,
		},
		{
			name: "checksum mismatch skips the frame and counts its traced record lost",
			stream: func(sb *streamBuilder) {
				sb.meta(1, traced).data(1, traced, 1, true).data(1, traced, 1, true).corrupt().data(1, traced, 1, true)
			},
			want:    []ingested{{data | transport.FrameFlagSum, 1, 1}, {data | transport.FrameFlagSum, 1, 1}},
			resyncs: 1, sumFailures: 1, lost: 1,
		},
		{
			name: "corrupt checksummed batch loses every record it advertised",
			stream: func(sb *streamBuilder) {
				sb.meta(1, traced).frame(transport.FrameBatch, 1, true, record(traced, 0), record(traced, 1), record(traced, 2)).corrupt()
			},
			resyncs: 1, sumFailures: 1, lost: 3,
		},
		{
			name: "payload not a positive multiple of the format size is skipped",
			stream: func(sb *streamBuilder) {
				sb.meta(1, traced)
				sb.frame(transport.FrameData, 1, false, record(traced, 0)[1:])
				sb.frame(transport.FrameBatch, 1, false, record(traced, 0), []byte{0})
				sb.frame(transport.FrameBatch, 1, false)
				sb.data(1, traced, 1, false)
			},
			want:    []ingested{{data, 1, 1}},
			resyncs: 3, lost: 3, // max(n/size, 1) each
		},
		{
			name: "undecodable meta is skipped",
			stream: func(sb *streamBuilder) {
				sb.frame(transport.FrameMeta, 1, false, []byte("not a meta block")).meta(1, tick).data(1, tick, 1, false)
			},
			want:    []ingested{{data, 1, 1}},
			resyncs: 1,
		},
		{
			name:         "data before meta drops the producer",
			stream:       func(sb *streamBuilder) { sb.data(7, tick, 1, false).meta(7, tick).data(7, tick, 1, false) },
			badProducers: 1, cause: "unknown format ID 7 (data before meta)",
		},
		{
			name: "unknown kind drops the producer",
			stream: func(sb *streamBuilder) {
				sb.meta(1, tick).frame(transport.FrameMetaRef, 1, false, make([]byte, 8)).data(1, tick, 1, false)
			},
			badProducers: 1, cause: "unexpected frame kind 3",
		},
		{
			name: "subscription frame from a plain producer drops it",
			stream: func(sb *streamBuilder) {
				if err := sb.fw.WriteSubscription(transport.Subscription{All: true, NodeID: "root"}); err != nil {
					t.Fatal(err)
				}
				sb.meta(1, tick).data(1, tick, 1, false)
			},
			badProducers: 1, cause: "unexpected subscription frame",
		},
		{
			name:   "subscription frame on an uplink is the upstream's identity",
			uplink: true,
			stream: func(sb *streamBuilder) {
				if err := sb.fw.WriteSubscription(transport.Subscription{All: true, NodeID: "root", MeshAddr: "10.0.0.1:9"}); err != nil {
					t.Fatal(err)
				}
				sb.meta(1, tick).data(1, tick, 1, false)
			},
			want: []ingested{{data, 1, 1}},
			peer: "root",
		},
		{
			name: "the 65th corrupt frame drops the producer",
			stream: func(sb *streamBuilder) {
				sb.meta(1, tick)
				for i := 0; i < maxProducerResyncs+1; i++ {
					sb.data(1, tick, 1, true).corrupt()
				}
				sb.data(1, tick, 1, true)
			},
			resyncs: maxProducerResyncs + 1, sumFailures: maxProducerResyncs + 1, badProducers: 1,
			cause: "exceeded 64 corrupt frames",
		},
		{
			name:         "truncated frame is a gone peer",
			stream:       func(sb *streamBuilder) { sb.meta(1, tick).data(1, tick, 1, false); sb.buf.Truncate(sb.buf.Len() - 3) },
			badProducers: 1, cause: "peer gone",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer()
			defer s.Close()
			tr := tracectx.New("relay", 1, 0)
			s.SetTracing(tr)
			var u *Uplink
			if tc.uplink {
				u = &Uplink{s: s}
			}
			sb := newStream(t)
			tc.stream(sb)
			var got []ingested
			for _, f := range runIngest(t, s, sb.buf.Bytes(), u) {
				if f.kind&^transport.FrameFlagSum != transport.FrameMeta {
					got = append(got, f)
				}
			}
			if len(got) != len(tc.want) {
				t.Fatalf("forwarded %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("forwarded frame %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
			st := s.Stats()
			if st.Resyncs != tc.resyncs || st.ChecksumFailures != tc.sumFailures || st.BadProducers != tc.badProducers {
				t.Errorf("Resyncs %d ChecksumFailures %d BadProducers %d, want %d %d %d (last error %q)",
					st.Resyncs, st.ChecksumFailures, st.BadProducers, tc.resyncs, tc.sumFailures, tc.badProducers, st.LastProducerError)
			}
			if !strings.Contains(st.LastProducerError, tc.cause) {
				t.Errorf("LastProducerError = %q, want it to name %q", st.LastProducerError, tc.cause)
			}
			if tr.Lost() != tc.lost {
				t.Errorf("tracer counted %d lost records, want %d", tr.Lost(), tc.lost)
			}
			if tc.uplink {
				if info := u.info(); info.NodeID != tc.peer {
					t.Errorf("uplink learned upstream %q, want %q", info.NodeID, tc.peer)
				}
			}
		})
	}
}

// TestRebatcherFlushPoints: a pending batch leaves on a format switch, on
// a meta frame, on reaching the size bound, and when the ingest ends —
// and never otherwise while input is still buffered.
func TestRebatcherFlushPoints(t *testing.T) {
	a := tickFormat(t)
	b := wire.MustLayout(goldenNested(), &abi.SparcV8)
	c := wire.MustLayout(goldenMixed(), &abi.X86x64)
	batch, data := byte(transport.FrameBatch|transport.FrameFlagSum), byte(transport.FrameData|transport.FrameFlagSum)

	s := NewServer()
	defer s.Close()
	s.SetChecksums(true)
	s.SetRebatching(4 * a.Size)
	sb := newStream(t)
	sb.meta(1, a).meta(2, b)
	sb.data(1, a, 3, false)                                                 // pending: 3 × a
	sb.data(2, b, 1, true)                                                  // format switch: a ×3 leaves; pending: 1 × b
	sb.data(1, a, 2, false)                                                 // format switch: b ×1 leaves as a data frame; pending: 2 × a
	sb.meta(3, c)                                                           // meta: a ×2 leaves before it
	sb.data(1, a, 5, false)                                                 // size: a ×4 leaves, 1 pending
	sb.frame(transport.FrameBatch, 1, false, record(a, 0), record(a, 1))    // 3 pending
	sb.frame(transport.FrameBatch, 1, true, record(a, 0), record(a, 1))     // would not fit: a ×3 leaves, 2 pending
	sb.frame(transport.FrameBatch, 3, false, bytes.Repeat(record(c, 0), 9)) // switch: a ×2 leaves; 9 × c exceeds the bound, leaves whole
	sb.data(1, a, 1, false)                                                 // exit: a ×1 leaves as a data frame
	if sb.buf.Len() >= 4096 {
		t.Fatalf("stream is %d bytes; it must fit one bufio fill so no flush is due to an empty buffer", sb.buf.Len())
	}

	got := runIngest(t, s, sb.buf.Bytes(), nil)
	meta := byte(transport.FrameMeta | transport.FrameFlagSum)
	want := []ingested{
		{meta, 1, 0}, {meta, 2, 0},
		{batch, 1, 3}, {data, 2, 1},
		{batch, 1, 2}, {meta, 3, 0},
		{batch, 1, 4}, {batch, 1, 3}, {batch, 1, 2},
		{batch, 3, 9},
		{data, 1, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("broadcast %d frames %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := s.Stats(); st.Resyncs != 0 || st.BadProducers != 0 {
		t.Errorf("clean stream counted errors: %+v", st)
	}
}
