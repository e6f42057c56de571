//go:build !race

package relay

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// forwardAllocs is the relay's steady-state heap allocations per
// forwarded frame: one producer, one PolicyBlock consumer, net.Pipe both
// sides, the benchmark's small_single_relay shape.  (Not measured under
// -race, where bufpool is a tracking free list that allocates by design.)
// Three remain, all ROADMAP 4's [perf_opt] debt, not this pin's to excuse:
//
//   - &sharedPayload{} in ingest.onRecords: the refcount a frame's pooled
//     copy is shared under;
//   - the PolicyBlock snapshot slice in broadcast: the consumers to push
//     to, taken so no push waits under Server.mu;
//   - the slice header bufpool.Put boxes into its sync.Pool when the last
//     consumer releases that copy.
//
// The parent of the one-codec change read 7: these three, ReadFrame's
// header escaping from the ingest's stack, and WriteFrame's header, iovec
// and net.Buffers in the pump.
const forwardAllocs = 3

func TestAllocsPerForwardedFrame(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.SetQueue(64, PolicyBlock)
	relayIn, producer := net.Pipe()
	relayOut, consumer := net.Pipe()
	defer producer.Close()
	defer consumer.Close()
	if !s.AddConsumerConn(relayOut) {
		t.Fatal("consumer not registered")
	}
	s.AddProducerConn(relayIn)
	deadline := time.Now().Add(20 * time.Second)
	producer.SetDeadline(deadline)
	consumer.SetDeadline(deadline)

	f := tickFormat(t)
	meta := newStream(t).meta(1, f).buf.Bytes()
	frame := newStream(t).data(1, f, 1, false).buf.Bytes()

	in := make([]byte, len(meta))
	exchange := func(out []byte) {
		if _, err := producer.Write(out); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(consumer, in[:len(out)]); err != nil {
			t.Fatal(err)
		}
	}
	exchange(meta)
	for i := 0; i < 8; i++ { // warm: pooled buffers taken, iovec grown
		exchange(frame)
	}
	if !bytes.Equal(in[:len(frame)], frame) {
		t.Fatalf("forwarded frame differs: % x, sent % x", in[:len(frame)], frame)
	}
	got := testing.AllocsPerRun(200, func() { exchange(frame) })
	if got != forwardAllocs {
		t.Errorf("relay allocates %.2f per forwarded frame, pinned at %d", got, forwardAllocs)
	}
}
