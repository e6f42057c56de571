package telemetry

// Quantile estimation from the fixed-log2-bucket histograms.
//
// The exporter publishes raw bucket counts (Prometheus computes its own
// quantiles), but in-process consumers of Snapshot and people reading
// /metrics want ready-made p50/p90/p99.  With log2 buckets the
// estimate is the classic rank walk: find the bucket holding the rank,
// then interpolate linearly inside it.  Error is bounded by the bucket
// width (at most 2× between adjacent bounds), which is the precision the
// histogram chose to store in the first place.

// Quantile estimates the q-th quantile (q in [0,1]) of the observations,
// interpolating linearly within the holding bucket.  Observations above
// the last bound estimate as the last bound (a lower bound on the true
// value).  Zero observations estimate as 0.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := 0.0
			if i > 0 {
				lo = float64(BucketBound(i - 1))
			}
			hi := float64(BucketBound(i))
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	// Rank lands in the +Inf bucket: report the last finite bound.
	return float64(BucketBound(len(s.Buckets) - 1))
}

// fillQuantiles stamps the exported quantile estimates.
func (s *HistogramSnapshot) fillQuantiles() {
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
}
