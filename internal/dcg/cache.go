package dcg

import (
	"sync"
	"time"

	"repro/internal/convert"
	"repro/internal/wire"
)

// Cache is the table of what is known about each (wire format, expected
// format) layout pair: the conversion plan, built on the pair's first
// sight, and the program compiled from that same plan on the first Get.
// PBIO generates a conversion routine once, "as soon as the wire format
// is known", and reuses it for every subsequent record of that format;
// the cache provides the same amortization, and Plan gives the
// interpreted baseline the plan without paying for code generation.
//
// A Cache is safe for concurrent use.
type Cache struct {
	mu    sync.RWMutex
	pairs map[cacheKey]*pair

	// OnBuild, when non-nil, is called once for every plan built and
	// once for every program compiled, by the goroutine that did the
	// work, after the result is filed.  Failed builds are not reported.
	// Set it before the cache is shared between goroutines.
	OnBuild func(Build)
}

// Build describes one first-sight piece of work: a plan built (Program
// is nil) or a program compiled from Plan, and how long it took.
type Build struct {
	Plan    *convert.Plan
	Program *Program
	Nanos   int64
}

type cacheKey struct {
	wire, native string
}

// pair is one table entry.  Each half is built at most once; an error is
// kept and returned to every later caller, and nothing is filed beside it.
type pair struct {
	planOnce, progOnce sync.Once
	plan               *convert.Plan
	prog               *Program
	planErr, progErr   error
}

// NewCache returns an empty table.
func NewCache() *Cache {
	return &Cache{pairs: make(map[cacheKey]*pair)}
}

// Plan returns the conversion plan from wireFmt records to expected
// records, building it on first use.  It compiles nothing.
func (c *Cache) Plan(wireFmt, expected *wire.Format) (*convert.Plan, error) {
	p := c.planned(wireFmt, expected)
	return p.plan, p.planErr
}

// Get returns a compiled program converting wireFmt records into expected
// records, compiling it — from the plan Plan returns — on first use.
func (c *Cache) Get(wireFmt, expected *wire.Format) (*Program, error) {
	p := c.planned(wireFmt, expected)
	if p.planErr != nil {
		return nil, p.planErr
	}
	c.first(&p.progOnce, func() Build {
		if p.prog, p.progErr = Compile(p.plan); p.progErr != nil {
			return Build{}
		}
		return Build{Plan: p.plan, Program: p.prog}
	})
	return p.prog, p.progErr
}

// planned returns the pair's entry with its plan half built.
func (c *Cache) planned(wireFmt, expected *wire.Format) *pair {
	key := cacheKey{wireFmt.Fingerprint(), expected.Fingerprint()}
	c.mu.RLock()
	p := c.pairs[key]
	c.mu.RUnlock()
	if p == nil {
		c.mu.Lock()
		if p = c.pairs[key]; p == nil {
			p = new(pair)
			c.pairs[key] = p
		}
		c.mu.Unlock()
	}
	c.first(&p.planOnce, func() Build {
		p.plan, p.planErr = convert.NewPlan(wireFmt, expected)
		return Build{Plan: p.plan}
	})
	return p
}

// first runs build under once and hands what it produced (a zero Build
// when it failed) to OnBuild — outside the once, so a listener may itself
// consult the cache.
func (c *Cache) first(once *sync.Once, build func() Build) {
	var b Build
	once.Do(func() {
		start := time.Now()
		b = build()
		b.Nanos = time.Since(start).Nanoseconds()
	})
	if b.Plan != nil && c.OnBuild != nil {
		c.OnBuild(b)
	}
}

// Len returns the number of layout pairs in the table.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.pairs)
}
