package relay

import (
	"bufio"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/flightrec"
	"repro/internal/transport"
)

// Fan-out: a frame's way from broadcast to a consumer's socket.  Server.mu
// guards the consumer set and every consumer's subscription; a queue has
// its own lock (queue.go) and is never waited on under Server.mu.

// sharedPayload is a pooled broadcast payload shared by every consumer
// queue a frame was enqueued to.  The broadcaster sets the reference
// count before the frame is visible to anyone; each consumer releases
// after writing (or when draining a closed queue), and the last
// reference returns the buffer to the pool.
type sharedPayload struct {
	refs atomic.Int32
	buf  []byte
}

// release drops one reference; the final release recycles the buffer.
// Nil receivers (un-pooled payloads, e.g. meta frames) are no-ops.
func (p *sharedPayload) release() {
	if p != nil && p.refs.Add(-1) == 0 {
		bufpool.Put(p.buf)
	}
}

// outFrame is one queued frame plus the pooled payload it rides on
// (owner nil when the payload is not pooled), with the record counts the
// queue needs for exact drop accounting: recs is how many records the
// frame carries (0 for meta), traced how many of them carry live wire
// trace context.
type outFrame struct {
	f      transport.Frame
	owner  *sharedPayload
	recs   int
	traced int

	// fstats is the frame's format accounting bucket, resolved once at
	// meta-registration time (nil for meta and control frames).  Riding
	// the frame keeps queue-side accounting lock-ordering-free: the
	// queue updates it under its own mutex without ever needing
	// Server.mu to resolve a format name.
	fstats *formatStats
}

// consumer is one subscriber connection.
type consumer struct {
	q    *frameQueue
	conn net.Conn

	// Subscription state, guarded by Server.mu.  all is true until the
	// consumer sends an explicit want-list (plain consumers never do);
	// want is the resolved relay-ID set for a non-all subscription.
	sub  transport.Subscription
	all  bool
	want map[uint32]bool

	// Downstream identity, guarded by Server.mu: set when the consumer's
	// subscription announced it as a relay (mesh handshake).
	// identitySent records that this relay's own identity reply has been
	// queued, so re-subscriptions do not repeat it.
	peerNodeID   string
	peerMeshAddr string
	identitySent bool

	// counted guards the departure counters: exactly one of
	// DroppedConsumers / Disconnects per consumer, no matter how the
	// drop path races the pump's own exit.
	counted atomic.Bool

	// stalled is the stall detector's edge memory: set while the
	// consumer is flagged, CASed by racing scrape walks so each
	// onset/clear transition reaches the flight journal exactly once.
	stalled atomic.Bool
}

// wantsLocked reports whether the consumer's subscription covers a relay
// format ID.  Callers hold Server.mu.
func (c *consumer) wantsLocked(id uint32) bool { return c.all || c.want[id] }

// broadcast enqueues a frame for every consumer whose subscription
// covers it (meta frames go to everyone — format knowledge is cheap and
// a subscription can widen later).  owner, when non-nil, is the frame's
// pooled payload: broadcast takes one reference per enqueue attempt plus
// one of its own (released before returning), and the consumer queues
// release theirs however the frame leaves the queue, so the buffer
// recycles exactly when the last consumer is done with it — including
// the zero-consumer case.
//
// A full queue resolves by the consumer's policy: disconnect evicts the
// consumer (its queued frames still flush), drop-oldest evicts the
// oldest queued frame, block waits for space.  Blocking pushes happen
// outside the server lock, so one stalled consumer delays its producer's
// stream but never consumer registration, stats, or other control paths.
//
//pbio:hotpath noalloc=0 per-frame fan-out; the non-blocking path enqueues without allocating
func (s *Server) broadcast(f transport.Frame, owner *sharedPayload, recs, traced int, fstats *formatStats) {
	if owner != nil {
		// The broadcaster's own reference keeps the count positive until
		// every enqueue attempt has resolved.
		owner.refs.Add(1)
	}
	isData := f.BaseKind() == transport.FrameData || f.BaseKind() == transport.FrameBatch
	of := outFrame{f: f, owner: owner, recs: recs, traced: traced, fstats: fstats}

	s.mu.Lock()
	s.stats.frames.Add(1)
	if s.queuePolicy == PolicyBlock {
		// Snapshot the matched consumers and push outside the lock:
		// PolicyBlock pushes can wait indefinitely on a slow consumer,
		// and the lock must not wait with them.
		//pbio:alloc-ok PolicyBlock trades one snapshot slice per frame for never waiting under the server lock
		targets := make([]*consumer, 0, len(s.consumers))
		for c := range s.consumers {
			if isData && !c.wantsLocked(f.FormatID) {
				continue
			}
			targets = append(targets, c)
		}
		s.stats.forwardedBytes.Add(int64(len(f.Payload)) * int64(len(targets)))
		s.mu.Unlock()
		fstats.noteForward(recs, len(f.Payload), len(targets))
		var drop []*consumer
		for _, c := range targets {
			if owner != nil {
				owner.refs.Add(1)
			}
			if c.q.push(of) == pushOverflow {
				// Only possible if this consumer was registered under a
				// non-blocking policy before SetQueue changed it.
				//pbio:alloc-ok grows only when a consumer is being evicted, which ends its steady state anyway
				drop = append(drop, c)
			}
		}
		for _, c := range drop {
			s.removeConsumer(c, "queue overflow", true)
		}
		owner.release()
		return
	}
	// Non-blocking policies: push never waits, so the whole fan-out runs
	// under the lock with no per-broadcast allocation.
	sent := 0
	var drop []*consumer
	for c := range s.consumers {
		if isData && !c.wantsLocked(f.FormatID) {
			continue
		}
		sent++
		if owner != nil {
			owner.refs.Add(1)
		}
		if c.q.pushNoWait(of) == pushOverflow {
			//pbio:alloc-ok grows only when a consumer is being evicted, which ends its steady state anyway
			drop = append(drop, c)
		}
	}
	s.stats.forwardedBytes.Add(int64(len(f.Payload)) * int64(sent))
	fstats.noteForward(recs, len(f.Payload), sent)
	for _, c := range drop {
		delete(s.consumers, c)
		c.q.close()
		s.noteConsumerGone(c, true, "queue overflow")
	}
	s.mu.Unlock()
	if len(drop) > 0 {
		s.notifyUplinks()
	}
	owner.release()
}

// noteConsumerGone counts one consumer departure exactly once —
// policyDrop selects DroppedConsumers (the relay evicted it) versus
// Disconnects (the peer left or its writes failed).  Safe to call from
// racing paths; the consumer's counted flag arbitrates.
func (s *Server) noteConsumerGone(c *consumer, policyDrop bool, reason string) {
	if !c.counted.CompareAndSwap(false, true) {
		return
	}
	if policyDrop {
		s.stats.droppedConsumers.Add(1)
		s.flight.Load().Emit(flightrec.KindPolicyDisconnect, reason, 0, 0, 0)
	} else {
		s.stats.disconnects.Add(1)
		s.flight.Load().Emit(flightrec.KindConsumerLeave, reason, 0, 0, 0)
	}
}

// removeConsumer unregisters c (if still registered) and closes its
// queue, counting the departure.  The pump keeps flushing whatever was
// queued before the close and then disconnects the socket.
func (s *Server) removeConsumer(c *consumer, reason string, policyDrop bool) {
	s.mu.Lock()
	registered := s.consumers[c]
	if registered {
		delete(s.consumers, c)
	}
	shuttingDown := s.closed
	s.mu.Unlock()
	c.q.close()
	if registered && !shuttingDown {
		s.noteConsumerGone(c, policyDrop, reason)
		s.notifyUplinks()
	}
}

// registerConsumer snapshots the known formats and registers the
// connection for broadcasts atomically, so no meta or data frame is
// missed or duplicated.  It runs on the accept loop (see ServeConsumers
// for why); ok is false when the relay is closed.
func (s *Server) registerConsumer(conn net.Conn) (c *consumer, replay []transport.Frame, wtimeout time.Duration, ok bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return nil, nil, 0, false
	}
	c = &consumer{conn: conn, all: true, sub: transport.Subscription{All: true}}
	c.q = newFrameQueue(s.queueCap, s.queuePolicy, func(of outFrame) {
		s.stats.droppedFrames.Add(1)
		s.stats.droppedRecords.Add(int64(of.recs))
		of.fstats.noteDrop(of.recs)
		if of.traced > 0 {
			s.tracer.Load().NoteLostN(of.traced)
		}
		// One journal event per evicted frame: arg1 carries the records
		// lost, arg2 the traced records among them, so a journal sums to
		// exactly the crawler's drop accounting.  Emit never blocks or
		// re-enters the queue, which the onEvict contract requires.
		s.flight.Load().Emit(flightrec.KindQueueEvict, of.fstats.statName(), 0, int64(of.recs), int64(of.traced))
	})
	replay = make([]transport.Frame, 0, s.formats.len())
	for id := 1; id <= s.formats.len(); id++ {
		replay = append(replay, s.formats.metaFrame(uint32(id), s.sums))
	}
	s.stats.metaReplays.Add(int64(len(replay)))
	s.consumers[c] = true
	n := len(s.consumers)
	wtimeout = s.consumerTimeout
	s.mu.Unlock()
	s.flight.Load().Emit(flightrec.KindConsumerJoin, peerLabel(conn), 0, int64(n), 0)
	return c, replay, wtimeout, true
}

// peerLabel names a connection's remote end for the flight journal.
func peerLabel(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// pumpConsumer replays known formats, then streams queued frames until
// the peer goes away or the queue is closed under it (policy drop or
// server shutdown) — in the latter case it still flushes everything
// queued before the close.
func (s *Server) pumpConsumer(c *consumer, replay []transport.Frame, wtimeout time.Duration) {
	conn := c.conn

	defer func() {
		s.removeConsumer(c, "peer gone", false)
		conn.Close()
		// Drain so a concurrent broadcast never blocks on us, releasing
		// every queued frame's share of its pooled payload.
		c.q.drain()
	}()

	fw := transport.NewFrameWriter(conn)
	write := func(f transport.Frame) error {
		if wtimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(wtimeout))
		}
		_, err := fw.Write(f.Kind, f.FormatID, false, f.Payload)
		return err
	}
	for _, f := range replay {
		if err := write(f); err != nil {
			return
		}
	}
	for {
		of, ok := c.q.pop()
		if !ok {
			return
		}
		err := write(of.f)
		of.owner.release()
		if err != nil {
			return
		}
	}
}

// readConsumerControl reads the consumer's direction of the link —
// subscription frames — until the connection dies.  Consumers that never
// write (the pre-subscription protocol) keep the read blocked until the
// pump closes the socket, which is what bounds this goroutine's life.
func (s *Server) readConsumerControl(c *consumer) {
	fr := transport.NewFrameReader(bufio.NewReaderSize(c.conn, 512))
	defer fr.Release()
	for {
		f, err := fr.Next()
		if err != nil {
			// EOF, peer gone, or garbage: either way the control channel
			// is over.  The data direction lives on until the pump fails.
			return
		}
		if f.BaseKind() != transport.FrameSub {
			continue // ignore unexpected-but-framed traffic
		}
		body, err := f.Body()
		if err != nil {
			continue // checksum mismatch: skip the frame, stay aligned
		}
		sub, err := transport.DecodeSubscription(body)
		if err != nil {
			continue
		}
		s.setSubscription(c, sub)
	}
}

// setSubscription applies a want-list to a consumer, resolving names to
// relay format IDs, and propagates the change to any auto-mode uplinks.
// A subscription carrying node identity marks the consumer as a
// downstream relay and triggers the other half of the mesh handshake:
// this relay's own identity, sent back once as a FrameSub riding the
// consumer's queue (so it never interleaves with a pump write).
func (s *Server) setSubscription(c *consumer, sub transport.Subscription) {
	sub = sub.Canonical()
	s.mu.Lock()
	if !s.consumers[c] {
		s.mu.Unlock()
		return
	}
	c.sub = sub
	c.all = sub.All
	if sub.All {
		c.want = nil
	} else {
		c.want = make(map[uint32]bool, len(sub.Names))
		for _, n := range sub.Names {
			for _, id := range s.formats.idsFor(n) {
				c.want[id] = true
			}
		}
	}
	var reply *transport.Subscription
	if sub.NodeID != "" || sub.MeshAddr != "" {
		c.peerNodeID, c.peerMeshAddr = sub.NodeID, sub.MeshAddr
		if !c.identitySent && (s.nodeID != "" || s.meshAddr != "") {
			c.identitySent = true
			reply = &transport.Subscription{All: true, NodeID: s.nodeID, MeshAddr: s.meshAddr}
		}
	}
	s.stats.subUpdates.Add(1)
	s.mu.Unlock()
	if reply != nil {
		if enc, err := transport.EncodeSubscription(*reply); err == nil {
			// FrameSub is in the queue's never-evict class, so the reply
			// survives drop-oldest; if the queue is closed or overflows
			// the reply is simply lost along with the consumer.
			c.q.push(outFrame{f: transport.Frame{Kind: transport.FrameSub, Payload: enc}})
		}
	}
	s.flight.Load().Emit(flightrec.KindSubscription, peerLabel(c.conn), 0, int64(len(sub.Names)), 0)
	s.notifyUplinks()
}
