package dcg

import (
	"repro/internal/telemetry"
)

// Metrics instruments the program cache: hit/miss counts show how well
// the once-per-wire-format amortization is working, and CompileNanos is
// the paper's "dynamic code generation cost" (its Figure 6 quantity)
// measured live instead of in an offline benchmark.
type Metrics struct {
	CacheHits    *telemetry.Counter
	CacheMisses  *telemetry.Counter
	CompileNanos *telemetry.Histogram
}

// NewMetrics builds the dcg metric set on r (nil registry → nil set).
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		CacheHits:    r.Counter("pbio_dcg_cache_hits_total", "Conversion-program cache hits."),
		CacheMisses:  r.Counter("pbio_dcg_cache_misses_total", "Conversion-program cache misses (each one compiles)."),
		CompileNanos: r.Histogram("pbio_dcg_compile_nanos", "Latency of one conversion-program compilation, nanoseconds."),
	}
}
