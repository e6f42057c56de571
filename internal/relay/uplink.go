package relay

import (
	"fmt"
	"net"
	"sort"
	"sync"

	"repro/internal/flightrec"
	"repro/internal/transport"
)

// Uplink is a relay's connection to an upstream hop in a mesh: the relay
// attaches to the upstream's *consumer* side, subscribes (FrameSub on
// the otherwise-silent upstream direction of that link), and ingests
// whatever the upstream forwards exactly as if it were a local producer.
// One inbound copy of the stream per hop, however many subscribers sit
// below.
type Uplink struct {
	s    *Server
	conn net.Conn
	fw   *transport.FrameWriter // conn's upstream direction; serialized by mu

	// static, when non-nil, is a fixed want-list sent once.  Nil means
	// auto mode: the uplink advertises the live union of what this
	// relay's own consumers (and downstream hops) want, re-sent whenever
	// it changes.
	static *transport.Subscription

	// addr labels the upstream in /debug/mesh: the address the caller
	// dialed (RunUplinkTo), or the connection's RemoteAddr fallback.
	addr string

	mu   sync.Mutex
	last string // canonical encoding last written upstream

	// peerMu guards the observability snapshot — the upstream identity
	// learned from its handshake reply and the last subscription sent —
	// separately from mu, which is held across connection writes: a
	// mesh scrape must never wait on a slow upstream socket.
	peerMu    sync.Mutex
	peerID    string
	peerMesh  string
	lastAll   bool
	lastNames []string

	kick chan struct{} // auto mode: union may have changed
	done chan struct{} // closed when RunUplink unwinds
}

// setPeer records the upstream's identity (its handshake reply).
func (u *Uplink) setPeer(id, meshAddr string) {
	u.peerMu.Lock()
	u.peerID, u.peerMesh = id, meshAddr
	u.peerMu.Unlock()
}

// info snapshots the uplink for /debug/mesh.
func (u *Uplink) info() MeshUplinkInfo {
	u.peerMu.Lock()
	defer u.peerMu.Unlock()
	return MeshUplinkInfo{
		Addr:     u.addr,
		NodeID:   u.peerID,
		MeshAddr: u.peerMesh,
		All:      u.lastAll,
		Names:    append([]string(nil), u.lastNames...),
	}
}

// RunUplink attaches this relay below an upstream relay reachable on
// conn (dialed to the upstream's consumer port).  static fixes the
// subscription; nil subscribes to the live downstream union, updated as
// consumers come, go, and re-subscribe.  It blocks, ingesting upstream
// frames, until conn fails, the upstream closes, or this relay is
// closed; the caller owns redial policy.
func (s *Server) RunUplink(conn net.Conn, static *transport.Subscription) error {
	addr := ""
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	return s.RunUplinkTo(conn, static, addr)
}

// RunUplinkTo is RunUplink with an explicit upstream address label for
// /debug/mesh.  Callers that dialed know the address they dialed, which
// is more useful to a mesh crawler than what RemoteAddr reports
// (in-process pipes, for one, report no address at all).
func (s *Server) RunUplinkTo(conn net.Conn, static *transport.Subscription, addr string) error {
	u := &Uplink{
		s:      s,
		conn:   conn,
		fw:     transport.NewFrameWriter(conn),
		static: static,
		addr:   addr,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return fmt.Errorf("relay: uplink on closed relay")
	}
	s.uplinks[u] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.uplinks, u)
		s.mu.Unlock()
		close(u.done)
		conn.Close()
	}()

	// First subscription goes out before any ingest: until the upstream
	// applies it we are an all-subscriber there (the late-join default),
	// which errs toward receiving too much, never too little.
	initial := s.downstreamUnion()
	if static != nil {
		initial = *static
	}
	if err := u.send(initial); err != nil {
		return fmt.Errorf("relay: uplink subscribe: %w", err)
	}
	s.flight.Load().Emit(flightrec.KindUplinkAttach, addr, 0, 0, 0)
	if static == nil {
		go u.updater()
	}

	// The upstream is just a producer from here down — renumbered meta,
	// verbatim or re-batched data, trace spans per hop — plus the
	// identity reply of the mesh handshake.
	s.serveProducer(conn, u)
	return nil
}

// Uplinks returns the number of active uplink connections.
func (s *Server) Uplinks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.uplinks)
}

// updater re-derives the downstream union on every kick and re-sends it
// upstream when it changed.  Exits when RunUplink unwinds.
func (u *Uplink) updater() {
	for {
		select {
		case <-u.done:
			return
		case <-u.kick:
		}
		// Send failures are left to the ingest loop to observe: if the
		// connection is broken, serveProducer's read fails and RunUplink
		// unwinds — reporting it twice helps nobody.
		u.send(u.s.downstreamUnion())
	}
}

// send writes a subscription upstream unless its canonical encoding
// matches the last one sent.  Serialized by u.mu so the updater and the
// initial send never interleave frame bytes.  Every subscription doubles
// as the mesh identity handshake: this relay's node identity is stamped
// on it, so the upstream learns who attached (and replies with its own).
func (u *Uplink) send(sub transport.Subscription) error {
	sub.NodeID, sub.MeshAddr = u.s.nodeInfo()
	sub = sub.Canonical()
	enc, err := transport.EncodeSubscription(sub)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if string(enc) == u.last {
		return nil
	}
	//pbiovet:allow lockcheck — u.mu exists to serialize frame bytes on this connection; holding it across the write is the point, and the upstream peer never needs this lock to drain its side.
	if _, err := u.fw.Write(transport.FrameSub, 0, false, enc); err != nil {
		return err
	}
	u.last = string(enc)
	u.peerMu.Lock()
	u.lastAll = sub.All
	u.lastNames = append(u.lastNames[:0], sub.Names...)
	u.peerMu.Unlock()
	return nil
}

// downstreamUnion returns the union of every connected consumer's
// subscription — what this relay needs from upstream.  Any
// all-subscriber makes the union All; so does having no consumers at
// all, the conservative "nothing known yet" default: a hop must never
// filter away data that a consumer still mid-registration would have
// wanted, so filtering only engages once explicit subscriptions exist.
// (The converse race is inherent to pub/sub and accepted: a consumer
// that *widens* a hop's union can miss frames broadcast while the wider
// union propagates upstream — subscribe before producing, exactly as
// flat-relay consumers connect before producing.)
func (s *Server) downstreamUnion() transport.Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.consumers) == 0 {
		return transport.Subscription{All: true}
	}
	names := make(map[string]bool)
	for c := range s.consumers {
		if c.all {
			return transport.Subscription{All: true}
		}
		for _, n := range c.sub.Names {
			names[n] = true
		}
	}
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return transport.Subscription{Names: out}
}

// notifyUplinks kicks every auto-subscription uplink to re-derive and —
// if it changed — re-send the downstream union.  Non-blocking: the kick
// channel holds one pending update; coalescing bursts is exactly right.
func (s *Server) notifyUplinks() {
	s.mu.Lock()
	for u := range s.uplinks {
		if u.static == nil {
			select {
			case u.kick <- struct{}{}:
			default:
			}
		}
	}
	s.mu.Unlock()
}
