package fmtserver

import (
	"sync/atomic"

	"repro/internal/flightrec"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
)

// ClientStats is a snapshot of a Client's request accounting.  The
// retry/redial counters make the backoff loop visible: before them a
// flaky format server showed up only as latency.
type ClientStats struct {
	Requests  int64 // round trips attempted (first tries, not retries)
	CacheHits int64 // Register/Lookup calls answered from the local cache
	Retries   int64 // additional attempts after a failed round trip
	Redials   int64 // connections re-established for a retry
}

// clientCounters is the live atomic form of ClientStats.
type clientCounters struct {
	requests  atomic.Int64
	cacheHits atomic.Int64
	retries   atomic.Int64
	redials   atomic.Int64
}

func (c *clientCounters) snapshot() ClientStats {
	return ClientStats{
		Requests:  c.requests.Load(),
		CacheHits: c.cacheHits.Load(),
		Retries:   c.retries.Load(),
		Redials:   c.redials.Load(),
	}
}

// Stats returns a snapshot of the client's request accounting.
func (c *Client) Stats() ClientStats { return c.counts.snapshot() }

// SetTelemetry exports the client's counters on r as export-time-read
// functions.
func (c *Client) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("pbio_fmtclient_requests_total", "Format-server round trips initiated.", c.counts.requests.Load)
	r.CounterFunc("pbio_fmtclient_cache_hits_total", "Register/Lookup calls answered from the local cache.", c.counts.cacheHits.Load)
	r.CounterFunc("pbio_fmtclient_retries_total", "Round-trip attempts beyond the first (backoff loop).", c.counts.retries.Load)
	r.CounterFunc("pbio_fmtclient_redials_total", "Connections re-established after a round-trip failure.", c.counts.redials.Load)
}

// SetTracer makes the client record one process-local fmtsrv span per
// network round trip (cache hits stay silent), so format-server latency
// shows up in the same trace timeline as the wire path.  Nil-safe and
// a no-op when t is nil.
func (c *Client) SetTracer(t *tracectx.Tracer) {
	if t != nil {
		c.tracer.Store(t)
	}
}

// SetFlight journals the client's retry/redial events on a flight
// recorder.  Nil-safe and a no-op when r is nil.
func (c *Client) SetFlight(r *flightrec.Recorder) {
	if r != nil {
		c.flight.Store(r)
	}
}

// SetFlight journals the server's format registrations on a flight
// recorder.  Nil-safe and a no-op when r is nil.
func (s *Server) SetFlight(r *flightrec.Recorder) {
	if r != nil {
		s.flight.Store(r)
	}
}

// SetTracer makes the server record one process-local fmtsrv span per
// handled request, labelled with the op.  Nil-safe and a no-op when t
// is nil.
func (s *Server) SetTracer(t *tracectx.Tracer) {
	if t != nil {
		s.tracer.Store(t)
	}
}

// ServerStats is a snapshot of a Server's request accounting.
type ServerStats struct {
	Conns     int64 // connections accepted
	Requests  int64 // requests handled (all ops)
	Registers int64 // successful register ops
	Lookups   int64 // successful lookup ops
	Misses    int64 // lookups of unknown IDs
	Errors    int64 // malformed or failed requests
}

// serverCounters is the live atomic form of ServerStats.
type serverCounters struct {
	conns     atomic.Int64
	requests  atomic.Int64
	registers atomic.Int64
	lookups   atomic.Int64
	misses    atomic.Int64
	errors    atomic.Int64
}

func (s *serverCounters) snapshot() ServerStats {
	return ServerStats{
		Conns:     s.conns.Load(),
		Requests:  s.requests.Load(),
		Registers: s.registers.Load(),
		Lookups:   s.lookups.Load(),
		Misses:    s.misses.Load(),
		Errors:    s.errors.Load(),
	}
}

// Stats returns a snapshot of the server's request accounting.
func (s *Server) Stats() ServerStats { return s.counts.snapshot() }

// SetTelemetry exports the server's counters on r.  A client redial
// storm is visible here as conns_total racing ahead of the client
// population.
func (s *Server) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("pbio_fmtserver_conns_total", "Connections accepted.", s.counts.conns.Load)
	r.CounterFunc("pbio_fmtserver_requests_total", "Requests handled (all ops).", s.counts.requests.Load)
	r.CounterFunc("pbio_fmtserver_registers_total", "Successful format registrations.", s.counts.registers.Load)
	r.CounterFunc("pbio_fmtserver_lookups_total", "Successful format lookups.", s.counts.lookups.Load)
	r.CounterFunc("pbio_fmtserver_lookup_misses_total", "Lookups of unknown format IDs.", s.counts.misses.Load)
	r.CounterFunc("pbio_fmtserver_errors_total", "Malformed or failed requests.", s.counts.errors.Load)
	r.GaugeFunc("pbio_fmtserver_formats", "Registered formats.", func() int64 { return int64(s.Len()) })
}
