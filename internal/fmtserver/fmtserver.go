// Package fmtserver implements PBIO's format server: a network service
// that assigns globally-meaningful identifiers to format descriptions and
// serves them back on demand.
//
// The transport layer can carry full meta-information in-band (its
// default), but in the deployed PBIO system a format server let many
// writers and readers share format identity across independent
// connections and files: a writer registers its format once and tags
// records with a small ID; any reader resolves an unknown ID with one
// round trip and caches the result forever.
//
// IDs here are content-addressed — the truncated SHA-256 of the format's
// canonical meta encoding — so registration is idempotent, identical
// layouts registered by different writers collide to the same ID by
// construction, and IDs are valid across server restarts.
//
// Wire protocol (TCP; all integers big-endian):
//
//	request:  u8 op, u32 payload length, payload
//	  op 1 (register): payload = meta block
//	  op 2 (lookup):   payload = 8-byte format ID
//	response: u8 status, u32 payload length, payload
//	  status 0 (ok):     register -> 8-byte ID; lookup -> meta block
//	  status 1 (error):  payload = ASCII message
package fmtserver

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/telemetry/tracectx"
	"repro/internal/wire"
)

// Op codes.
const (
	opRegister = 1
	opLookup   = 2
)

// Status codes.
const (
	statusOK  = 0
	statusErr = 1
)

// opName maps an op code to its bounded trace label.
func opName(op byte) string {
	switch op {
	case opRegister:
		return "register"
	case opLookup:
		return "lookup"
	}
	return "other"
}

// maxPayload bounds request/response payloads.
const maxPayload = 1 << 20

// FormatID is a global, content-addressed format identifier.
type FormatID uint64

// IDOf computes the content-addressed ID of a format.
func IDOf(f *wire.Format) FormatID {
	sum := sha256.Sum256(wire.EncodeMeta(f))
	return FormatID(wire.BeUint64(sum[:8]))
}

// ErrUnknownFormat is returned by lookups of unregistered IDs.
var ErrUnknownFormat = errors.New("fmtserver: unknown format ID")

// Server is a format server instance.  Serve may be called on multiple
// listeners; the store is shared and safe for concurrent use.
type Server struct {
	mu      sync.RWMutex
	formats map[FormatID][]byte // ID -> canonical meta encoding
	counts  serverCounters
	tracer  atomic.Pointer[tracectx.Tracer]
	flight  atomic.Pointer[flightrec.Recorder]
}

// NewServer returns an empty format server.
func NewServer() *Server {
	return &Server{formats: make(map[FormatID][]byte)}
}

// Len returns the number of registered formats.
func (s *Server) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.formats)
}

// Serve accepts and serves connections until the listener is closed.
// It always returns a non-nil error (the accept error that stopped it).
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.counts.conns.Add(1)
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // client went away
		}
		op := hdr[0]
		n := int(wire.BeUint32(hdr[1:]))
		if n < 0 || n > maxPayload {
			s.counts.errors.Add(1)
			writeResp(conn, statusErr, []byte("payload too large"))
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		s.counts.requests.Add(1)
		if t := s.tracer.Load(); t != nil {
			start := time.Now()
			err := s.handle(conn, op, payload)
			t.Record(tracectx.Span{ID: t.NewID(), Name: tracectx.PhaseFmtsrv,
				Start: start, Dur: time.Since(start), Path: opName(op)})
			if err != nil {
				return
			}
			continue
		}
		if err := s.handle(conn, op, payload); err != nil {
			return
		}
	}
}

func (s *Server) handle(conn net.Conn, op byte, payload []byte) error {
	switch op {
	case opRegister:
		f, _, err := wire.DecodeMeta(payload)
		if err != nil {
			s.counts.errors.Add(1)
			return writeResp(conn, statusErr, []byte(err.Error()))
		}
		// Store the canonical re-encoding, not the client's bytes, so
		// the ID always matches the stored content.
		canonical := wire.EncodeMeta(f)
		id := IDOf(f)
		s.mu.Lock()
		s.formats[id] = canonical
		s.mu.Unlock()
		s.counts.registers.Add(1)
		s.flight.Load().Emit(flightrec.KindFmtRegister, f.Name, 0, int64(id), 0)
		var idBuf [8]byte
		wire.PutBeUint64(idBuf[:], uint64(id))
		return writeResp(conn, statusOK, idBuf[:])
	case opLookup:
		if len(payload) != 8 {
			s.counts.errors.Add(1)
			return writeResp(conn, statusErr, []byte("lookup payload must be 8 bytes"))
		}
		id := FormatID(wire.BeUint64(payload))
		s.mu.RLock()
		meta, ok := s.formats[id]
		s.mu.RUnlock()
		if !ok {
			s.counts.misses.Add(1)
			return writeResp(conn, statusErr, []byte(ErrUnknownFormat.Error()))
		}
		s.counts.lookups.Add(1)
		return writeResp(conn, statusOK, meta)
	default:
		s.counts.errors.Add(1)
		return writeResp(conn, statusErr, []byte(fmt.Sprintf("unknown op %d", op)))
	}
}

func writeResp(w io.Writer, status byte, payload []byte) error {
	hdr := [5]byte{status}
	wire.PutBeUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Client talks to a format server and caches results.  A Client is safe
// for concurrent use; requests are serialized over one connection.
//
// A Client built with Dial retries failed round trips with exponential
// backoff over a fresh connection — a format server restart or a dropped
// connection is invisible to callers as long as the server comes back
// within the retry budget.  IDs are content-addressed, so a re-sent
// register is idempotent and retries are always safe.
type Client struct {
	mu   sync.Mutex
	conn net.Conn

	// redial, when set, reconnects after a round-trip failure.  attempts
	// is the total number of tries per round trip (min 1) and backoff
	// the delay before the first retry, doubling each retry after that.
	redial   func() (net.Conn, error)
	attempts int
	backoff  time.Duration

	// timeout, when nonzero, bounds each round trip attempt's I/O with a
	// connection deadline.
	timeout time.Duration

	cacheMu sync.RWMutex
	byID    map[FormatID]*wire.Format
	ids     map[string]FormatID // fingerprint -> ID

	counts clientCounters
	tracer atomic.Pointer[tracectx.Tracer]
	flight atomic.Pointer[flightrec.Recorder]
}

// Retry defaults for Dial-built clients.
const (
	defaultAttempts = 4
	defaultBackoff  = 25 * time.Millisecond
)

// Dial connects to a format server.  The returned client redials and
// retries failed round trips with exponential backoff.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fmtserver: %w", err)
	}
	c := NewClient(conn)
	c.redial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	c.attempts = defaultAttempts
	return c, nil
}

// NewClient wraps an established connection.  Without a redial function
// (see SetRedial) the client cannot retry: a mid-request failure leaves
// the byte stream unsynchronized, so reusing the connection is unsafe.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn:     conn,
		attempts: 1,
		backoff:  defaultBackoff,
		byID:     make(map[FormatID]*wire.Format),
		ids:      make(map[string]FormatID),
	}
}

// SetRedial equips the client to replace its connection after a failure,
// enabling retries.
func (c *Client) SetRedial(fn func() (net.Conn, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.redial = fn
	if c.attempts < defaultAttempts {
		c.attempts = defaultAttempts
	}
}

// SetRetry configures the per-round-trip attempt budget and the initial
// backoff delay (doubled before each subsequent retry).
func (c *Client) SetRetry(attempts int, backoff time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if attempts < 1 {
		attempts = 1
	}
	c.attempts = attempts
	c.backoff = backoff
}

// SetTimeout bounds each round-trip attempt with a connection deadline.
// Zero disables.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Register registers a format and returns its global ID.  Results are
// cached; re-registering a known layout makes no network round trip.
func (c *Client) Register(f *wire.Format) (FormatID, error) {
	fp := f.Fingerprint()
	c.cacheMu.RLock()
	id, ok := c.ids[fp]
	c.cacheMu.RUnlock()
	if ok {
		c.counts.cacheHits.Add(1)
		return id, nil
	}
	status, payload, err := c.roundTrip(opRegister, wire.EncodeMeta(f))
	if err != nil {
		return 0, err
	}
	if status != statusOK {
		return 0, fmt.Errorf("fmtserver: register: %s", payload)
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("fmtserver: register: bad response length %d", len(payload))
	}
	id = FormatID(wire.BeUint64(payload))
	c.cacheMu.Lock()
	c.ids[fp] = id
	c.byID[id] = f
	c.cacheMu.Unlock()
	return id, nil
}

// Lookup resolves a format ID, consulting the local cache first.
func (c *Client) Lookup(id FormatID) (*wire.Format, error) {
	c.cacheMu.RLock()
	f, ok := c.byID[id]
	c.cacheMu.RUnlock()
	if ok {
		c.counts.cacheHits.Add(1)
		return f, nil
	}
	var idBuf [8]byte
	wire.PutBeUint64(idBuf[:], uint64(id))
	status, payload, err := c.roundTrip(opLookup, idBuf[:])
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		if string(payload) == ErrUnknownFormat.Error() {
			return nil, ErrUnknownFormat
		}
		return nil, fmt.Errorf("fmtserver: lookup: %s", payload)
	}
	f, _, err = wire.DecodeMeta(payload)
	if err != nil {
		return nil, err
	}
	// Defend against a corrupt or lying server: the content address of
	// what we received must be the ID we asked for.
	if IDOf(f) != id {
		return nil, fmt.Errorf("fmtserver: lookup: content hash mismatch for ID %#x", uint64(id))
	}
	c.cacheMu.Lock()
	c.byID[id] = f
	c.ids[f.Fingerprint()] = id
	c.cacheMu.Unlock()
	return f, nil
}

// roundTrip performs one request/response exchange, retrying over a fresh
// connection with exponential backoff when the client has a redial
// function.  A retry never reuses a connection that failed mid-request:
// the stream may hold half a message, so resynchronizing is impossible —
// reconnect-and-resend is the only safe recovery, and the protocol's
// idempotent requests make it correct.
func (c *Client) roundTrip(op byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts.requests.Add(1)
	if t := c.tracer.Load(); t != nil {
		start := time.Now()
		defer func() {
			t.Record(tracectx.Span{ID: t.NewID(), Name: tracectx.PhaseFmtsrv,
				Start: start, Dur: time.Since(start), Path: opName(op)})
		}()
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if c.redial == nil {
				break
			}
			c.counts.retries.Add(1)
			c.flight.Load().Emit(flightrec.KindFmtRetry, opName(op), 0, int64(attempt+1), 0)
			//pbiovet:allow lockcheck — c.mu serializes the one-request-at-a-time protocol on this connection; backing off while holding it just extends the current request's turn.
			time.Sleep(c.backoff << (attempt - 1))
			conn, err := c.redial()
			if err != nil {
				lastErr = fmt.Errorf("fmtserver: redial: %w", err)
				continue
			}
			c.counts.redials.Add(1)
			c.flight.Load().Emit(flightrec.KindConnOpen, "fmtserver redial", 0, 0, 0)
			c.conn.Close()
			c.conn = conn
		}
		//pbiovet:allow lockcheck — the request/response exchange is what c.mu serializes: a second caller must not interleave frames on the shared connection, so the I/O happens under the lock by design.
		status, resp, err := c.do(op, payload)
		if err == nil {
			return status, resp, nil
		}
		lastErr = err
	}
	if c.attempts > 1 {
		return 0, nil, fmt.Errorf("fmtserver: %d attempts failed, last: %w", c.attempts, lastErr)
	}
	return 0, nil, lastErr
}

// do performs a single request/response attempt on the current
// connection.  Callers hold c.mu.
func (c *Client) do(op byte, payload []byte) (byte, []byte, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	var hdr [5]byte
	hdr[0] = op
	wire.PutBeUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("fmtserver: send: %w", err)
	}
	if _, err := c.conn.Write(payload); err != nil {
		return 0, nil, fmt.Errorf("fmtserver: send: %w", err)
	}
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("fmtserver: recv: %w", err)
	}
	n := int(wire.BeUint32(hdr[1:]))
	if n < 0 || n > maxPayload {
		return 0, nil, fmt.Errorf("fmtserver: recv: payload %d out of range", n)
	}
	resp := make([]byte, n)
	if _, err := io.ReadFull(c.conn, resp); err != nil {
		return 0, nil, fmt.Errorf("fmtserver: recv: %w", err)
	}
	return hdr[0], resp, nil
}
