//go:build race

package bufpool

import (
	"strings"
	"testing"
)

// Race builds replace sync.Pool with the exact tracked free list; these
// tests prove the tracker's guarantees, which the fault-injection suites
// in transport and relay rely on.

func TestDoublePutPanicsUnderRace(t *testing.T) {
	b := Get(256)
	Put(b)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double Put did not panic in a race build")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double Put") {
			t.Fatalf("unexpected panic: %v", r)
		}
		// Leave the pool consistent for other tests: the buffer really is
		// pooled once; nothing to repair.
	}()
	Put(b)
}

func TestPutPoisonsUnderRace(t *testing.T) {
	b := Get(300)
	for i := range b {
		b[i] = byte(i)
	}
	stale := b[:cap(b)]
	Put(b)
	for i, v := range stale {
		if v != poison {
			t.Fatalf("byte %d of a Put buffer reads %#x through a stale reference, want poison %#x", i, v, poison)
		}
	}
}

func TestOutstandingTracksGetPut(t *testing.T) {
	before := Outstanding()
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = Get(512)
	}
	if got := Outstanding(); got != before+len(bufs) {
		t.Errorf("Outstanding=%d after %d Gets (baseline %d)", got, len(bufs), before)
	}
	for _, b := range bufs {
		Put(b)
	}
	if got := Outstanding(); got != before {
		t.Errorf("Outstanding=%d after balanced Puts, want %d", got, before)
	}
}
