//go:build race

package relay

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/transport"
)

// The relay keeps pooled buffers where no flow analysis follows them — a
// struct literal that many queues share, a variable a deferred closure
// captured — so ownership is proven at run time: the race build's
// bufpool tracker panics on the second Put.  These tests seed the two
// second Puts that would be easiest to write (DESIGN §10, EXPERIMENTS
// "PR 19 mutation audit") and require the panic.

// mustPanicDoublePut runs f and requires the tracker's panic.
func mustPanicDoublePut(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, "double Put") {
			t.Fatalf("a second Put of a relay buffer did not panic \"double Put\" (recovered %q)", msg)
		}
	}()
	f()
}

// A frame goes producer side → broadcast → queue → pump → consumer on a
// sharedPayload; the last reference recycles the copy.  The producer
// path that made the copy must not recycle it too.
func TestBroadcastPayloadPutTwicePanics(t *testing.T) {
	s := NewServer()
	defer s.Close()
	relayEnd, consumerEnd := net.Pipe()
	defer consumerEnd.Close()
	if !s.AddConsumerConn(relayEnd) {
		t.Fatal("consumer not registered")
	}

	record := bytes.Repeat([]byte{0x5A}, 200)
	cp := bufpool.Get(len(record))
	copy(cp, record)
	owner := &sharedPayload{buf: cp}
	s.broadcast(transport.Frame{Kind: transport.FrameData, FormatID: 1, Payload: cp}, owner, 1, 0, nil)

	// The pump releases a frame before it pops the next, so once a second
	// (unpooled) frame arrives the first has had its last release.
	s.broadcast(transport.Frame{Kind: transport.FrameData, FormatID: 1, Payload: record[:1]}, nil, 1, 0, nil)
	consumerEnd.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := transport.NewFrameReader(bufio.NewReader(consumerEnd))
	for _, want := range [][]byte{record, record[:1]} {
		f, err := fr.Next()
		if err != nil || !bytes.Equal(f.Payload, want) {
			t.Fatalf("consumer read %d-byte payload, err %v; want %d bytes of the record", len(f.Payload), err, len(want))
		}
	}
	fr.Release()
	if n := owner.refs.Load(); n != 0 {
		t.Fatalf("payload has %d references after delivery", n)
	}
	mustPanicDoublePut(t, func() { bufpool.Put(cp) })
}

// putOnRead is a consumer connection that delivers one frame header,
// then — handed the reader's pooled payload buffer to fill — Puts that
// buffer itself and hangs up.
type putOnRead struct {
	net.Conn // nil: readConsumerControl only reads
	header   []byte
}

func (c *putOnRead) Read(p []byte) (int, error) {
	if len(c.header) > 0 {
		n := copy(p, c.header)
		c.header = c.header[n:]
		return n, nil
	}
	bufpool.Put(p)
	return 0, io.EOF
}

// readConsumerControl owns its read buffer through a deferred closure
// and returns it when the control channel ends; anything else that Puts
// it makes that the second Put.
func TestControlReaderBufferPutTwicePanics(t *testing.T) {
	// A payload larger than the reader's bufio buffer is read straight
	// into the pooled slice, which is how the connection gets hold of it.
	const payload = 2048
	var wire bytes.Buffer
	if _, err := transport.NewFrameWriter(&wire).Write(transport.FrameSub, 0, false, make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	header := wire.Bytes()[:wire.Len()-payload]

	s := NewServer()
	defer s.Close()
	mustPanicDoublePut(t, func() {
		s.readConsumerControl(&consumer{conn: &putOnRead{header: header}})
	})
}

// An ingest owns one pooled buffer, its frame reader's, for as long as
// the producer stays; run() returns it when the producer goes (its twin
// readConsumerControl always did).  No consumer is attached, so every
// broadcast copy is released before run() returns and the tracker's count
// must be back where it started.
func TestIngestReleasesReadBuffer(t *testing.T) {
	s := NewServer()
	defer s.Close()
	f := tickFormat(t)
	stream := newStream(t).meta(1, f).data(1, f, 8, true).buf.Bytes()
	// Goroutines of earlier tests may still be handing buffers back; a
	// leak shows on every attempt, their noise does not.
	for attempt := 1; ; attempt++ {
		before := bufpool.Outstanding()
		s.newIngest(bytes.NewReader(stream), nil).run()
		after := bufpool.Outstanding()
		if after == before {
			return
		}
		if attempt == 3 {
			t.Fatalf("%d pooled buffers outstanding after the producer disconnected, %d before it connected", after, before)
		}
	}
}
