package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second registration returns the first")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counter not shared across registrations")
	}

	v := r.CounterVec("vec_total", "labeled", "k")
	if v.With("x") != v.With("x") {
		t.Fatal("same label values should return the same child")
	}
	if v.With("x") == v.With("y") {
		t.Fatal("different label values should return different children")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict", "as counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("conflict", "as gauge")
}

func TestRegistryArityConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("arity_total", "one label", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different label arity should panic")
		}
	}()
	r.CounterVec("arity_total", "two labels", "a", "b")
}

// TestNilSafety is the contract the hot paths rely on: every metric
// operation through a nil registry, metric, vec or ring is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Counter("x", "").Add(5)
	r.Gauge("x", "").Set(5)
	r.Gauge("x", "").Add(-1)
	r.Histogram("x", "").Observe(100)
	r.CounterVec("x", "", "l").With("v").Inc()
	r.GaugeVec("x", "", "l").With("v").Set(1)
	r.HistogramVec("x", "", "l").With("v").Observe(1)
	r.CounterFunc("x", "", func() int64 { return 1 })
	r.GaugeFunc("x", "", func() int64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if (*Counter)(nil).Value() != 0 || (*Gauge)(nil).Value() != 0 {
		t.Fatal("nil metrics should read as zero")
	}
	if (*Histogram)(nil).Count() != 0 || (*Histogram)(nil).Sum() != 0 {
		t.Fatal("nil histogram should read as zero")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_nanos", "")

	// Bucket i holds v <= BucketBound(i) = 1<<(7+i).
	cases := []struct {
		v      int64
		bucket int // -1 means +Inf
	}{
		{1, 0},
		{128, 0},                  // == BucketBound(0)
		{129, 1},                  // first value above bucket 0
		{256, 1},                  // == BucketBound(1)
		{BucketBound(27), 27},     // last finite bucket
		{BucketBound(27) + 1, -1}, // above every bound → +Inf
	}
	var wantSum int64
	for _, c := range cases {
		h.Observe(c.v)
		wantSum += c.v
	}
	s := h.snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	want := make([]int64, histBuckets)
	var wantInf int64
	for _, c := range cases {
		if c.bucket < 0 {
			wantInf++
		} else {
			want[c.bucket]++
		}
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Errorf("bucket %d (le %d) = %d, want %d", i, BucketBound(i), s.Buckets[i], want[i])
		}
	}
	if s.Inf != wantInf {
		t.Errorf("inf = %d, want %d", s.Inf, wantInf)
	}
}

func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_nanos", "")
	h.ObserveN(100, 5)
	h.ObserveN(100, 0)  // no-op
	h.ObserveN(100, -3) // no-op
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 500 {
		t.Fatalf("count=%d sum=%d, want 5/500", s.Count, s.Sum)
	}
	if s.Buckets[0] != 5 {
		t.Errorf("bucket 0 = %d, want all 5 observations", s.Buckets[0])
	}
	// Batched and single observation must be indistinguishable.
	h2 := r.Histogram("h2_nanos", "")
	for i := 0; i < 5; i++ {
		h2.Observe(100)
	}
	if a, b := h.Snapshot(), h2.Snapshot(); a.Count != b.Count || a.Sum != b.Sum || a.P99 != b.P99 {
		t.Errorf("ObserveN(100,5) = %+v, 5×Observe(100) = %+v", a, b)
	}
	(*Histogram)(nil).ObserveN(1, 1) // nil-safe
}

// TestConcurrentIncrements exercises every metric type from many
// goroutines at once; run with -race this is the package's data-race
// test, and the final values prove no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 16
		perG       = 1000
	)
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_nanos", "")
	vec := r.CounterVec("conc_vec_total", "", "worker")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Resolve the child inside the goroutine so the vec's
			// lock-protected map is itself exercised concurrently.
			//pbiovet:allow tracecheck — bounded to 4 values; built only to exercise the map
			mine := vec.With(fmt.Sprint(id % 4))
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j))
				mine.Inc()
			}
		}(i)
	}
	// Concurrent readers: exports must be safe during writes.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Snapshot()
			}
		}()
	}
	wg.Wait()

	const total = goroutines * perG
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %d, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	var vecSum int64
	for i := 0; i < 4; i++ {
		//pbiovet:allow tracecheck — reading back the 4 bounded test series
		vecSum += vec.With(fmt.Sprint(i)).Value()
	}
	if vecSum != total {
		t.Errorf("vec sum = %d, want %d", vecSum, total)
	}
}

func TestCounterFuncReadsAtExport(t *testing.T) {
	r := NewRegistry()
	var backing int64
	r.CounterFunc("fn_total", "reads a live variable", func() int64 { return backing })
	backing = 9
	for _, m := range r.Snapshot() {
		if m.Name == "fn_total" {
			if m.Series[0].Value != 9 {
				t.Fatalf("fn counter = %d, want 9", m.Series[0].Value)
			}
			return
		}
	}
	t.Fatal("fn_total not in snapshot")
}
