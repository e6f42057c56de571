package bufpool

import "testing"

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{0, 0}, {1, 0}, {64, 0},
		{65, 1}, {128, 1},
		{129, 2},
		{1 << 22, numClasses - 1},
		{1<<22 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetLengthAndClassCapacity(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096, 1 << 20} {
		b := Get(n)
		if len(b) != n {
			t.Errorf("Get(%d): len %d", n, len(b))
		}
		want := classBytes(classFor(n))
		if cap(b) != want {
			t.Errorf("Get(%d): cap %d, want class capacity %d", n, cap(b), want)
		}
		Put(b)
	}
}

func TestOversizeNeverPooled(t *testing.T) {
	n := 1<<22 + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("oversize Get: len %d", len(b))
	}
	// Put must silently drop it; the next Get of the largest class must
	// still honor the class-capacity contract.
	Put(b)
	c := Get(1 << 22)
	if cap(c) < 1<<22 {
		t.Errorf("largest-class Get: cap %d", cap(c))
	}
	Put(c)
}

func TestPutBetweenClassesRecyclesDown(t *testing.T) {
	// A buffer whose capacity sits between classes (e.g. grown by append)
	// recycles into the class below, trimmed to it, so Get delivers
	// exactly its class's capacity.
	odd := make([]byte, 100, 100) // 100 < 128: belongs to class 64
	Put(odd)
	b := Get(64)
	if cap(b) != 64 {
		t.Errorf("Get(64) after odd-capacity Put: cap %d, want 64", cap(b))
	}
	Put(b)
}

func TestTinyAndNilDropped(t *testing.T) {
	Put(nil)              // must not panic
	Put(make([]byte, 10)) // below the smallest class: dropped
	b := Get(10)
	if len(b) != 10 || cap(b) < 64 {
		t.Errorf("Get(10) after tiny Put: len %d cap %d", len(b), cap(b))
	}
	Put(b)
}

func TestNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get(-1) did not panic")
		}
	}()
	Get(-1)
}
