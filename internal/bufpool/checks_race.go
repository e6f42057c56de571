//go:build race

package bufpool

import (
	"fmt"
	"sync"
	"unsafe"
)

// Race-instrumented builds replace the sync.Pool backend with an exact,
// mutex-guarded free list that tracks the ownership state of every
// buffer the pool has ever produced.  A double Put — which would let two
// future Gets alias one backing array — panics at the offending Put
// instead of surfacing later as silent data corruption, and every Put
// fills the buffer with poison, so a read through a stale reference
// returns bytes no frame header, checksum or record oracle accepts (from
// another goroutine it is also a reported race against the fill).
//
// Exactness matters: sync.Pool drops entries at random, after which the
// GC may reuse a dropped buffer's address for an unrelated allocation,
// making any state map keyed by base pointer go stale and misfire.  The
// free list here never drops an entry without also deleting its tracking
// state, and everything still tracked is reachable (held either by the
// list or by the caller), so an address can never be recycled out from
// under the map.  Per-class depth is bounded; overflow buffers are
// untracked and released to the GC.

type bufState uint8

const (
	stateOutstanding bufState = iota + 1 // handed out by Get, not yet Put
	statePooled                          // sitting in the free list
)

// maxFreeDepth bounds each class's free list so race-build tests don't
// pin unbounded memory.
const maxFreeDepth = 64

var (
	trackMu sync.Mutex
	free    [numClasses][][]byte
	tracked = map[unsafe.Pointer]bufState{}
)

func base(b []byte) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(b)) }

func poolGet(c int) ([]byte, bool) {
	trackMu.Lock()
	defer trackMu.Unlock()
	l := free[c]
	if len(l) == 0 {
		return nil, false
	}
	b := l[len(l)-1]
	free[c] = l[:len(l)-1]
	tracked[base(b)] = stateOutstanding
	return b, true
}

// poison is the byte a buffer is filled with on Put.
const poison = 0xDB

func poolPut(c int, b []byte) {
	trackMu.Lock()
	defer trackMu.Unlock()
	p := base(b)
	if tracked[p] == statePooled {
		panic(fmt.Sprintf("bufpool: double Put of %d-byte buffer %p", cap(b), p))
	}
	// Doubling copies: one instrumented write per power of two, not one
	// per byte.
	b[0] = poison
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
	if len(free[c]) >= maxFreeDepth {
		// Overflow: drop the buffer and forget it, so the GC may free it
		// and its address can be reused without confusing the tracker.
		delete(tracked, p)
		return
	}
	tracked[p] = statePooled
	free[c] = append(free[c], b)
}

// noteMake records a freshly-allocated pool buffer as outstanding.
func noteMake(b []byte) []byte {
	trackMu.Lock()
	tracked[base(b)] = stateOutstanding
	trackMu.Unlock()
	return b
}

// Outstanding returns how many tracked buffers are currently held by
// callers (handed out by Get, not yet Put).  Only meaningful in race
// builds; tests use it to prove a fault-injection run did not leak or
// poison the pool.
func Outstanding() int {
	trackMu.Lock()
	defer trackMu.Unlock()
	n := 0
	for _, s := range tracked {
		if s == stateOutstanding {
			n++
		}
	}
	return n
}
