package relay

import (
	"bytes"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The golden stream pins what a relay hop does to bytes (ROADMAP 9, relay
// leg): two seeded producer streams go in, and what a consumer reads —
// renumbered headers, relay-encoded meta, verbatim payloads with their
// checksum prefixes — is compared byte for byte with committed files.  A
// refactor of the relay, the frame codec or the writer's ID assignment
// that moves one byte fails here and names the file.
//
//	go test ./internal/relay -run TestGoldenStream -update
//
// rewrites testdata/ (and must be justified in DESIGN §6).

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func goldenMixed() *wire.Schema {
	return &wire.Schema{
		Name: "mixed",
		Fields: []wire.FieldSpec{
			{Name: "node", Type: abi.Int, Count: 1},
			{Name: "timestamp", Type: abi.Double, Count: 1},
			{Name: "tag", Type: abi.Char, Count: 8},
			{Name: "values", Type: abi.Float, Count: 3},
			{Name: "step", Type: abi.Long, Count: 1},
		},
	}
}

func goldenNested() *wire.Schema {
	return &wire.Schema{
		Name: "outer",
		Fields: []wire.FieldSpec{
			{Name: "n", Type: abi.Int, Count: 1},
			{Name: "inner", Count: 3, Sub: &wire.Schema{
				Name: "pair",
				Fields: []wire.FieldSpec{
					{Name: "a", Type: abi.Double, Count: 1},
					{Name: "b", Type: abi.Short, Count: 1},
				},
			}},
		},
	}
}

// goldenWriter stages seeded records of one sender ABI into a stream.
type goldenWriter struct {
	t    *testing.T
	w    *transport.Writer
	arch *abi.Arch
	seed int64
}

func (g *goldenWriter) images(s *wire.Schema, n int) (*wire.Format, [][]byte) {
	f := wire.MustLayout(s, g.arch)
	imgs := make([][]byte, n)
	for i := range imgs {
		rec := native.New(f)
		native.FillDeterministic(rec, g.seed)
		if off := wire.TraceFieldOffset(f); off >= 0 {
			wire.PutTraceContext(rec.Buf, f.Order, off, wire.TraceContext{
				TraceID: uint64(0xA000 + g.seed), ParentSpan: uint64(g.seed), SendUnixNs: uint64(1_700_000_000_000_000_000 + g.seed)})
		}
		g.seed++
		imgs[i] = rec.Buf
	}
	return f, imgs
}

func (g *goldenWriter) singles(s *wire.Schema, n int) {
	f, imgs := g.images(s, n)
	for _, img := range imgs {
		if err := g.w.WriteRecord(f, img); err != nil {
			g.t.Fatal(err)
		}
	}
}

func (g *goldenWriter) batch(s *wire.Schema, n int) {
	f, imgs := g.images(s, n)
	if err := g.w.WriteBatch(f, imgs); err != nil {
		g.t.Fatal(err)
	}
}

// goldenProducers renders the two producer streams and the number of
// records each carries.  The first is a big-endian 32-bit sender without
// checksums: single-record frames of the mixed and nested schemas, a
// 64-record batch frame, a trace-extended format, then a second writer on
// the same connection, which replays the first format's meta under the
// same ID.  The second is a little-endian 64-bit sender with checksums: it
// opens with a layout the relay already knows (one relay ID, two
// producers) and goes on to its own.
func goldenProducers(t *testing.T) (streams [2][]byte, records [2]int) {
	var a bytes.Buffer
	g := &goldenWriter{t: t, w: transport.NewWriter(&a), arch: &abi.SparcV8, seed: 1}
	g.singles(goldenMixed(), 3)
	g.singles(goldenNested(), 2)
	g.batch(goldenMixed(), 64)
	g.singles(wire.TraceSchema(goldenMixed()), 2)
	g.w = transport.NewWriter(&a)
	g.singles(goldenMixed(), 1)
	streams[0], records[0] = a.Bytes(), 3+2+64+2+1

	var b bytes.Buffer
	g = &goldenWriter{t: t, w: transport.NewWriter(&b), arch: &abi.SparcV8, seed: 1000}
	g.w.SetChecksums(true)
	g.singles(goldenMixed(), 1)
	g.arch = &abi.X86x64
	g.singles(goldenMixed(), 2)
	g.batch(goldenNested(), 64)
	g.singles(wire.TraceSchema(goldenMixed()), 1)
	streams[1], records[1] = b.Bytes(), 1+2+64+1
	return streams, records
}

// frameTap reads whole frames from a relay consumer connection, keeping
// the raw bytes and counting the records delivered so far.
type frameTap struct {
	t     *testing.T
	raw   bytes.Buffer
	fr    *transport.FrameReader
	sizes map[uint32]int // relay ID -> record size, learned from meta
	recs  int
	metas int
}

func newFrameTap(t *testing.T, s *Server) *frameTap {
	relayEnd, consumerEnd := net.Pipe()
	t.Cleanup(func() { consumerEnd.Close() })
	if !s.AddConsumerConn(relayEnd) {
		t.Fatal("consumer not registered")
	}
	consumerEnd.SetReadDeadline(time.Now().Add(20 * time.Second))
	ft := &frameTap{t: t, sizes: make(map[uint32]int)}
	ft.fr = transport.NewFrameReader(io.TeeReader(consumerEnd, &ft.raw))
	t.Cleanup(ft.fr.Release)
	return ft
}

// until reads frames until done reports true.
func (ft *frameTap) until(done func() bool) {
	ft.t.Helper()
	for !done() {
		f, err := ft.fr.Next()
		if err != nil {
			ft.t.Fatalf("consumer read after %d records, %d metas: %v", ft.recs, ft.metas, err)
		}
		body, err := f.Body()
		if err != nil {
			ft.t.Fatalf("frame kind %#x id %d: %v", f.Kind, f.FormatID, err)
		}
		switch f.BaseKind() {
		case transport.FrameMeta:
			format, _, err := wire.DecodeMeta(body)
			if err != nil {
				ft.t.Fatal(err)
			}
			ft.sizes[f.FormatID] = format.Size
			ft.metas++
		case transport.FrameData, transport.FrameBatch:
			ft.recs += len(body) / ft.sizes[f.FormatID]
		}
	}
}

// feed attaches stream as one producer connection and writes it whole.
func feed(t *testing.T, s *Server, stream []byte) {
	relayEnd, producerEnd := net.Pipe()
	s.AddProducerConn(relayEnd)
	go func() {
		defer producerEnd.Close()
		if _, err := producerEnd.Write(stream); err != nil {
			t.Errorf("producer write: %v", err)
		}
	}()
}

// runGolden drives both producer streams, one after the other, through s
// and returns what a consumer attached from the start read, and what a
// late joiner was replayed.
func runGolden(t *testing.T, s *Server) (live, late []byte) {
	streams, records := goldenProducers(t)
	tap := newFrameTap(t, s)
	want := 0
	for i, stream := range streams {
		// Relay IDs are first come, first numbered: the second producer
		// starts only when the first one's last record has come out.
		want += records[i]
		feed(t, s, stream)
		tap.until(func() bool { return tap.recs >= want })
	}
	if tap.recs != want {
		t.Fatalf("consumer got %d records, want %d", tap.recs, want)
	}
	joiner := newFrameTap(t, s)
	joiner.until(func() bool { return joiner.metas >= s.Formats() })
	return tap.raw.Bytes(), joiner.raw.Bytes()
}

func goldenFile(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%v (write it with -update)", err)
	}
	return want
}

func diffAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if want := goldenFile(t, name, got); !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes, golden has %d; first difference at offset %d", name, len(got), len(want), diffAt(got, want))
	}
}

// TestGoldenStreamVerbatim: rebatching off, the relay's output is
// frame-identical to the golden file — and so are the producer streams,
// which pins the writer's ID assignment and meta bytes too.
func TestGoldenStreamVerbatim(t *testing.T) {
	streams, _ := goldenProducers(t)
	checkGolden(t, "producer1.pbio", streams[0])
	checkGolden(t, "producer2.pbio", streams[1])

	s := NewServer()
	defer s.Close()
	s.SetQueue(64, PolicyBlock)
	live, late := runGolden(t, s)
	checkGolden(t, "consumer.pbio", live)
	checkGolden(t, "latejoin.pbio", late)
	if st := s.Stats(); st.BadProducers != 0 || st.Resyncs != 0 || st.ChecksumFailures != 0 {
		t.Errorf("clean streams counted errors: %+v", st)
	}
}

// canonical reduces a consumer stream to what rebatching may not change:
// per relay ID, in first-seen order, the meta body and every record's
// bytes concatenated.  Frame boundaries, frame kinds and checksum
// prefixes are dropped; a checksum that does not verify is an error, and
// with wantSums every frame must carry one.
func canonical(t *testing.T, stream []byte, wantSums bool) []byte {
	t.Helper()
	var order []uint32
	meta := make(map[uint32][]byte)
	recs := make(map[uint32][]byte)
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
		if wantSums && !f.Checksummed() {
			t.Errorf("relay-built frame kind %#x id %d carries no checksum", f.Kind, f.FormatID)
		}
		body, err := f.Body()
		if err != nil {
			t.Fatalf("frame kind %#x id %d: %v", f.Kind, f.FormatID, err)
		}
		switch f.BaseKind() {
		case transport.FrameMeta:
			if _, seen := meta[f.FormatID]; !seen {
				order = append(order, f.FormatID)
			}
			meta[f.FormatID] = append([]byte(nil), body...)
		case transport.FrameData, transport.FrameBatch:
			recs[f.FormatID] = append(recs[f.FormatID], body...)
		default:
			t.Fatalf("unexpected frame kind %#x", f.Kind)
		}
	}
	var out bytes.Buffer
	fw := transport.NewFrameWriter(&out)
	for _, id := range order {
		frames := []transport.Frame{{Kind: transport.FrameMeta, FormatID: id, Payload: meta[id]}}
		if len(recs[id]) > 0 {
			frames = append(frames, transport.Frame{Kind: transport.FrameBatch, FormatID: id, Payload: recs[id]})
		}
		for _, f := range frames {
			if _, err := fw.Write(f.Kind, f.FormatID, false, f.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out.Bytes()
}

// TestGoldenStreamRebatched: with SetRebatching and SetChecksums the
// relay re-cuts frames where its reads happen to fall, so frame
// boundaries are not pinned — the records are: per format, the same bytes
// in the same order as the verbatim golden stream, under checksums the
// relay built and the consumer verified.
func TestGoldenStreamRebatched(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.SetQueue(64, PolicyBlock)
	s.SetRebatching(1 << 12)
	s.SetChecksums(true)
	live, late := runGolden(t, s)

	golden, err := os.ReadFile(filepath.Join("testdata", "consumer.pbio"))
	if err != nil {
		t.Fatalf("%v (write it with -run TestGoldenStreamVerbatim -update)", err)
	}
	if got, want := canonical(t, live, true), canonical(t, golden, false); !bytes.Equal(got, want) {
		t.Errorf("rebatched records differ from the golden stream's: %d canonical bytes, want %d; first difference at offset %d",
			len(got), len(want), diffAt(got, want))
	}
	lateGolden, err := os.ReadFile(filepath.Join("testdata", "latejoin.pbio"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, late, true), canonical(t, lateGolden, false); !bytes.Equal(got, want) {
		t.Errorf("late joiner's replayed meta differs from the golden replay")
	}
}
