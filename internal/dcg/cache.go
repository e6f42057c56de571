package dcg

import (
	"sync"
	"time"

	"repro/internal/convert"
	"repro/internal/wire"
)

// Cache memoizes compiled conversion programs per (wire format, native
// format) layout pair.  PBIO generates a conversion routine once, "as soon
// as the wire format is known", and reuses it for every subsequent record
// of that format; the cache provides the same amortization.
//
// A Cache is safe for concurrent use.
type Cache struct {
	mu    sync.RWMutex
	progs map[cacheKey]*Program

	// met and conv, when non-nil, account cache traffic, codegen latency
	// and plan builds.  Set once before use (SetMetrics).
	met  *Metrics
	conv *convert.Metrics

	// flight, when non-nil, journals each compilation as a discrete
	// event (compiles are rare and expensive — exactly what a flight
	// journal is for).  Set once before use (SetFlight).
	flight FlightSink
}

// FlightSink receives compile events for the flight journal.  The
// dependency is this small interface so dcg stays a leaf compiler
// package; *flightrec.Recorder satisfies it.
type FlightSink interface {
	// DCGCompile journals one compilation: the fused shape (run-op
	// count, word-wide swap ops per record, per-record step fallbacks)
	// plus the compile latency.
	DCGCompile(format string, runs, fusedWords, stepFallbacks, nanos int64)
}

// SetMetrics attaches telemetry for cache hits/misses and compile
// latency (met) and for the plan builds compilation triggers (conv).
// Call before the cache is shared between goroutines.
func (c *Cache) SetMetrics(met *Metrics, conv *convert.Metrics) {
	c.met = met
	c.conv = conv
}

// SetFlight attaches a flight sink for compile events.  Call before the
// cache is shared between goroutines.
func (c *Cache) SetFlight(s FlightSink) { c.flight = s }

type cacheKey struct {
	wire, native string
}

// NewCache returns an empty program cache.
func NewCache() *Cache {
	return &Cache{progs: make(map[cacheKey]*Program)}
}

// Get returns a compiled program converting wireFmt records into expected
// records, compiling it on first use.
func (c *Cache) Get(wireFmt, expected *wire.Format) (*Program, error) {
	key := cacheKey{wireFmt.Fingerprint(), expected.Fingerprint()}
	c.mu.RLock()
	prog := c.progs[key]
	c.mu.RUnlock()
	if prog != nil {
		if c.met != nil {
			c.met.CacheHits.Inc()
		}
		return prog, nil
	}
	if c.met != nil {
		c.met.CacheMisses.Inc()
	}
	plan, err := convert.NewPlanTimed(wireFmt, expected, c.conv)
	if err != nil {
		return nil, err
	}
	var start time.Time
	if c.met != nil || c.flight != nil {
		start = time.Now()
	}
	prog, err = Compile(plan)
	if err != nil {
		return nil, err
	}
	if !start.IsZero() {
		nanos := time.Since(start).Nanoseconds()
		if c.met != nil {
			c.met.CompileNanos.Observe(nanos)
		}
		if c.flight != nil {
			runs, words, steps := prog.Stats()
			c.flight.DCGCompile(wireFmt.Name, int64(runs), int64(words), int64(steps), nanos)
		}
	}
	c.mu.Lock()
	// Another goroutine may have won the race; keep the first program so
	// callers share one instance.
	if existing, ok := c.progs[key]; ok {
		prog = existing
	} else {
		c.progs[key] = prog
	}
	c.mu.Unlock()
	return prog, nil
}

// Len returns the number of cached programs.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.progs)
}
