// Package allocfix exercises alloccheck: //pbio:hotpath alloc budgets,
// the //pbio:alloc-ok escape hatch, and the cold-path exemptions.
package allocfix

import (
	"errors"
	"fmt"
	"io"
	"net"
)

var sink interface{}

// makeOnHotPath busts its zero budget with a make.
//
//pbio:hotpath noalloc=0 fixture
func makeOnHotPath(n int) []byte {
	return make([]byte, n) // want `make \(allocates\) in //pbio:hotpath noalloc=0 function makeOnHotPath \(1 allocation site found\); fix it, or mark a deliberate one with //pbio:alloc-ok <reason>`
}

// withinBudget is clean: one allocation, budget one.
//
//pbio:hotpath noalloc=1 the result slice is the function's product
func withinBudget(n int) []byte {
	return make([]byte, n)
}

// allocOKCovers is clean: the deliberate allocation carries a reason.
//
//pbio:hotpath noalloc=0 fixture
func allocOKCovers(n int) []byte {
	//pbio:alloc-ok snapshot slice, amortized by the caller
	return make([]byte, n)
}

// bareAllocOK forgets the reason: the site is suppressed, but the hatch
// demands a justification.
//
//pbio:hotpath noalloc=0 fixture
func bareAllocOK(n int) []byte {
	//pbio:alloc-ok
	return make([]byte, n) // want `//pbio:alloc-ok requires a reason: say why this allocation is acceptable on the hot path`
}

// coldErrorPath is clean: allocations in a branch that returns a non-nil
// error are setup for the failure report, not steady-state cost.
//
//pbio:hotpath noalloc=0 fixture
func coldErrorPath(n int) ([]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("allocfix: bad size %d", n)
	}
	return sharedBuf[:n], nil
}

var sharedBuf = make([]byte, 1<<16)

// manySites reports every uncovered site once the budget is blown.
//
//pbio:hotpath noalloc=0 fixture
func manySites(s string) {
	go func() {}()            // want `goroutine start \(allocates\) in //pbio:hotpath noalloc=0 function manySites \(4 allocation sites found\)`
	sink = s + "!"            // want `string concatenation \(allocates\) in //pbio:hotpath noalloc=0 function manySites`
	sink = []byte(s)          // want `string/\[\]byte conversion \(copies and allocates\) in //pbio:hotpath noalloc=0 function manySites`
	sink = errors.New("oops") // want `errors.New call \(allocates\) in //pbio:hotpath noalloc=0 function manySites`
}

// boxes trips the interface-boxing rule: a non-pointer value passed as
// an interface parameter.
//
//pbio:hotpath noalloc=0 fixture
func boxes(v int64) {
	consume(v) // want `interface boxing of non-pointer value \(allocates\) in //pbio:hotpath noalloc=0 function boxes`
}

func consume(v interface{}) { sink = v }

// growsEmpty appends to a slice declared without capacity.
//
//pbio:hotpath noalloc=0 fixture
func growsEmpty(xs []int) int {
	var out []int
	for _, x := range xs {
		out = append(out, x) // want `append to a slice declared without capacity \(grows and allocates\) in //pbio:hotpath noalloc=0 function growsEmpty`
	}
	return len(out)
}

type header struct{ buf []byte }

// freshHeader returns a new header per call where a caller-owned,
// reused one would do.
//
//pbio:hotpath noalloc=0 fixture
func freshHeader(b []byte) *header {
	return &header{buf: b} // want `address of composite literal \(allocates when it escapes\) in //pbio:hotpath noalloc=0 function freshHeader`
}

// stackHeader reads into a local array through an interface: the array
// escapes.  A field of a persistent struct is the fix, and is clean.
//
//pbio:hotpath noalloc=0 fixture
func stackHeader(r io.Reader, h *header) error {
	var hdr [11]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil { // want `local array sliced into a call with an interface argument \(escapes to the heap\) in //pbio:hotpath noalloc=0 function stackHeader`
		return err
	}
	_, err := io.ReadFull(r, h.buf[:4])
	return err
}

// literalBuffers builds its iovec per call.
//
//pbio:hotpath noalloc=0 fixture
func literalBuffers(w io.Writer, a, b []byte) error {
	bufs := net.Buffers{a, b} // want `slice literal \(allocates its backing array when it escapes\) in //pbio:hotpath noalloc=0 function literalBuffers`
	_, err := bufs.WriteTo(w)
	return err
}

// notAnnotated is free to allocate: no budget, no diagnostics.
func notAnnotated(n int) []byte {
	return make([]byte, n)
}

//pbio:hotpath noalloc=zero fixture
func badBudget() {} // want `malformed //pbio:hotpath annotation: noalloc wants a non-negative integer, got "zero"`

//pbio:hotpath
func badAnnotation() {} // want "malformed //pbio:hotpath annotation: want `//pbio:hotpath noalloc=N \[rationale\]`"
