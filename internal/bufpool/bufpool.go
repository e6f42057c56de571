// Package bufpool is a size-class-based free list for the wire path's
// payload buffers.  The transport reader, the relay's broadcast copies,
// and checksummed frame construction all need byte slices whose size is
// known only at run time; allocating them per frame is what put the
// receive path tens of allocations per record.  The pool recycles them
// so steady-state hot paths allocate nothing.
//
// Ownership rules (see DESIGN.md §10): a buffer obtained from Get is
// owned by the caller until it is handed to Put, after which it must not
// be touched — not even read.  Put is optional (a leaked buffer is
// garbage-collected like any other slice, it just stops amortizing), but
// a double Put poisons the pool: two future Gets can return the same
// backing array.  Race-instrumented builds (`go test -race`) therefore
// swap the sync.Pool backend for an exact, tracked free list and panic
// on a double Put, turning silent aliasing corruption into a loud test
// failure; Outstanding exposes the leak count to tests.
package bufpool

// Size classes are powers of two from minClass to maxClass.  Requests
// above the largest class fall through to plain make and are never
// pooled — they are rare (a frame payload is bounded at 256 MiB but
// typical records are orders of magnitude smaller) and pooling them
// would pin large arrays for the lifetime of the process.
const (
	minClassBits = 6  // 64 B
	maxClassBits = 22 // 4 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor returns the index of the smallest class with capacity ≥ n,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// classBytes returns the capacity of class c.
func classBytes(c int) int { return 1 << (minClassBits + c) }

// Get returns a buffer of length n whose capacity is the containing
// size class.  The buffer's contents are arbitrary (it may have been
// used before); callers that need zeroed memory must clear it.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative length")
	}
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if b, ok := poolGet(c); ok {
		return b[:n]
	}
	return noteMake(make([]byte, n, classBytes(c)))
}

// Put returns a buffer to the pool.  The buffer is recycled into the
// largest class its capacity covers, so slices that grew outside the
// pool (or were sliced down) still recycle usefully.  Buffers smaller
// than the smallest class, larger than the largest, and nil are
// dropped.  After Put the caller must not touch the buffer again.
func Put(b []byte) {
	c := b[:cap(b)]
	if cap(c) < 1<<minClassBits {
		return
	}
	cls := classFor(cap(c))
	if cls < 0 {
		// Larger than the largest class: never pooled.
		return
	}
	if classBytes(cls) > cap(c) {
		// Capacity sits between classes; recycle into the class below,
		// trimmed to that class's capacity, so a future Get receives
		// exactly the capacity its class promises.
		cls--
		if cls < 0 {
			return
		}
		c = c[:classBytes(cls):classBytes(cls)]
	}
	poolPut(cls, c)
}
