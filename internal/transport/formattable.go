package transport

// FormatTable maps one stream's format IDs to what its owner keeps per
// format (a Reader its Slot, a relay its renumbering).  Every writer in
// this tree numbers formats from 1, so the usual lookup is an index; the
// IDs are still the peer's to choose, and one past the dense window
// costs a map entry, never memory proportional to its value.  The zero
// value is ready; a table belongs to the goroutine reading its stream.
type FormatTable[T any] struct {
	dense []*T          // ID i at dense[i-1]; nil where unbound
	spill map[uint32]*T // IDs past the window when first bound (and ID 0)
	n     int
}

// dense is never longer than denseSlack + 4 × (IDs bound): the window is
// bounded by the meta frames the peer sent, whatever IDs they named.
const denseSlack = 64

// Lookup returns what is bound to id, or nil.
//
//pbio:hotpath noalloc=0 per-frame format lookup, an index for sequential IDs; pinned by pbio/alloc_test.go TestAllocsRoundRobinDecode
func (t *FormatTable[T]) Lookup(id uint32) *T {
	if i := id - 1; i < uint32(len(t.dense)) { // id 0 wraps: never dense
		if v := t.dense[i]; v != nil {
			return v
		}
	}
	return t.spill[id]
}

// Bind puts v under id, replacing what was there.  An ID stays where it
// was first put: the window only widens, so a dense ID stays dense, and
// a spilled one is replaced in the map.
func (t *FormatTable[T]) Bind(id uint32, v *T) {
	_, spilled := t.spill[id]
	if !spilled && t.Lookup(id) == nil {
		t.n++
	}
	if i := id - 1; !spilled && uint64(i) < denseSlack+4*uint64(t.n) {
		for uint32(len(t.dense)) <= i {
			t.dense = append(t.dense, nil)
		}
		t.dense[i] = v
		return
	}
	if t.spill == nil {
		t.spill = make(map[uint32]*T)
	}
	t.spill[id] = v
}

// Len returns the number of IDs bound.
func (t *FormatTable[T]) Len() int { return t.n }
