package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/abi"
	"repro/internal/wire"
)

// tableFormat lays out a one-field format; different arches give
// different layouts under the same name.
func tableFormat(name string, arch *abi.Arch) *wire.Format {
	return wire.MustLayout(&wire.Schema{Name: name, Fields: []wire.FieldSpec{
		{Name: "x", Type: abi.Long, Count: 1},
	}}, arch)
}

func metaFrame(id uint32, f *wire.Format) []byte {
	meta := wire.AppendMeta(nil, f)
	return rawFrame(FrameMeta, id, len(meta), meta)
}

func dataFrame(id uint32, f *wire.Format) []byte {
	return rawFrame(FrameData, id, f.Size, make([]byte, f.Size))
}

func TestFormatTableBindLookup(t *testing.T) {
	cases := []struct {
		name      string
		ids       []uint32
		wantSpill int
	}{
		{"sequential", []uint32{1, 2, 3, 4, 5, 6, 7, 8}, 0},
		{"out of order", []uint32{7, 3, 8, 1, 2, 6, 5, 4}, 0},
		{"relay subset", []uint32{19, 7, 42}, 0},
		{"gap", []uint32{1, 5000}, 1},
		{"maximal", []uint32{math.MaxUint32}, 1},
		{"zero", []uint32{0}, 1}, // the table takes it (a relay's producer may use 0); a Reader never offers it
		{"sparse", []uint32{1, 1 << 20, 2, 1 << 31, 3}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tab FormatTable[int]
			vals := make([]int, len(tc.ids))
			for i, id := range tc.ids {
				if tab.Lookup(id) != nil {
					t.Fatalf("id %d found before it was bound", id)
				}
				tab.Bind(id, &vals[i])
			}
			if tab.Len() != len(tc.ids) {
				t.Errorf("Len = %d, want %d", tab.Len(), len(tc.ids))
			}
			for i, id := range tc.ids {
				if got := tab.Lookup(id); got != &vals[i] {
					t.Errorf("Lookup(%d) = %p, want %p", id, got, &vals[i])
				}
			}
			for _, id := range []uint32{0, 9, 4999, 5001, math.MaxUint32 - 1} {
				bound := false
				for _, b := range tc.ids {
					bound = bound || b == id
				}
				if !bound && tab.Lookup(id) != nil {
					t.Errorf("Lookup(%d) found something never bound", id)
				}
			}
			if len(tab.spill) != tc.wantSpill {
				t.Errorf("%d ids spilled, want %d", len(tab.spill), tc.wantSpill)
			}
			if max := denseSlack + 4*tab.Len(); len(tab.dense) > max {
				t.Errorf("dense window is %d entries for %d formats, bound is %d", len(tab.dense), tab.Len(), max)
			}
		})
	}
}

// Bind replaces (the relay's semantics; a Reader refuses before it gets
// here), wherever the id lives, and an id never moves between the dense
// window and the spill map — even once the window has grown past it.
func TestFormatTableReplace(t *testing.T) {
	var tab FormatTable[int]
	a, b := 1, 2
	tab.Bind(5000, &a) // far past the window of an empty table
	vals := make([]int, 5000)
	for id := uint32(1); id < 5000; id++ {
		tab.Bind(id, &vals[id])
	}
	tab.Bind(5001, &a) // by now inside it
	tab.Bind(5000, &b)
	tab.Bind(5001, &b)
	tab.Bind(3, &b)
	for _, id := range []uint32{5000, 5001, 3} {
		if tab.Lookup(id) != &b {
			t.Errorf("Lookup(%d) did not return the replacement", id)
		}
	}
	if tab.Len() != 5001 || len(tab.spill) != 1 {
		t.Errorf("Len = %d with %d spilled, want 5001 with 1", tab.Len(), len(tab.spill))
	}
}

// A hostile id costs one map entry, not memory proportional to the id.
func TestFormatTableMaximalIDIsCheap(t *testing.T) {
	v := 7
	allocs := testing.AllocsPerRun(10, func() {
		var tab FormatTable[int]
		tab.Bind(math.MaxUint32, &v)
		if tab.Lookup(math.MaxUint32) != &v {
			t.Fatal("lost the binding")
		}
	})
	if allocs > 4 {
		t.Errorf("binding id 0xFFFFFFFF costs %.0f allocations, want the spill map and its one entry (≤ 4)", allocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var tab FormatTable[int]
	tab.Bind(math.MaxUint32, &v)
	tab.Bind(math.MaxUint32-1, &v)
	runtime.ReadMemStats(&after)
	// Other goroutines of the test binary allocate too; the bound only has
	// to tell a small map from a slice indexed by the id (32 GB).
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("two maximal ids allocated %d bytes, want a small map", grew)
	}
	if len(tab.dense) != 0 {
		t.Errorf("dense window grew to %d entries for ids it cannot hold", len(tab.dense))
	}
	if got := testing.AllocsPerRun(100, func() { _ = tab.Lookup(math.MaxUint32) }); got != 0 {
		t.Errorf("Lookup of a spilled id allocates %.0f", got)
	}
}

// The Reader's rules on top of the table: id 0 refused, ordinals in bind
// order whatever the ids, an identical rebind keeps the first slot and a
// different one is ErrProtocol, data before meta is ErrProtocol inside
// and outside the dense window, and Reset forgets everything.
func TestFormatTableReaderSemantics(t *testing.T) {
	a := tableFormat("a", &abi.SparcV8)
	aAgain := tableFormat("a", &abi.SparcV8) // same layout, another pointer
	aOther := tableFormat("a", &abi.X86)     // same name, other byte order
	if wire.SameLayout(a, aOther) {
		t.Fatal("test formats must differ in layout")
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	t.Run("id 0 rejected", func(t *testing.T) {
		r := NewReader(bytes.NewReader(metaFrame(0, a)))
		if _, err := r.ReadMessage(); !errors.Is(err, ErrProtocol) {
			t.Errorf("meta for id 0: %v, want ErrProtocol", err)
		}
		if r.formats.Len() != 0 {
			t.Error("id 0 was bound")
		}
	})

	t.Run("ordinals follow bind order", func(t *testing.T) {
		ids := []uint32{9, 2, math.MaxUint32, 5000, 1}
		var stream []byte
		for _, id := range ids {
			stream = append(stream, metaFrame(id, a)...)
		}
		for i := len(ids) - 1; i >= 0; i-- {
			stream = append(stream, dataFrame(ids[i], a)...)
		}
		r := NewReader(bytes.NewReader(stream))
		for i := len(ids) - 1; i >= 0; i-- {
			m, err := r.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if int(m.Ord) != i || !wire.SameLayout(m.Format, a) {
				t.Errorf("record under id %d: ordinal %d, want %d", ids[i], m.Ord, i)
			}
		}
		if r.formats.Len() != len(ids) {
			t.Errorf("reader bound %d formats, want %d", r.formats.Len(), len(ids))
		}
	})

	t.Run("rebind identical keeps the first slot", func(t *testing.T) {
		for _, id := range []uint32{3, 70000} {
			r := NewReader(bytes.NewReader(cat(
				metaFrame(id, a), dataFrame(id, a), metaFrame(id, aAgain), dataFrame(id, a))))
			first, err := r.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			slot := r.formats.Lookup(id)
			second, err := r.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if second.Format != first.Format || second.Ord != first.Ord || r.formats.Lookup(id) != slot {
				t.Errorf("id %d: an identical rebind replaced the slot (state filed under its ordinal would be orphaned)", id)
			}
			if r.formats.Len() != 1 {
				t.Errorf("id %d: %d formats bound after a rebind, want 1", id, r.formats.Len())
			}
		}
	})

	t.Run("rebind different is a protocol error", func(t *testing.T) {
		for _, id := range []uint32{3, 70000} {
			r := NewReader(bytes.NewReader(cat(metaFrame(id, a), metaFrame(id, aOther), dataFrame(id, a))))
			if _, err := r.ReadMessage(); !errors.Is(err, ErrProtocol) {
				t.Errorf("id %d rebound to a different layout: %v, want ErrProtocol", id, err)
			}
			if s := r.formats.Lookup(id); s == nil || s.Format.Order != a.Order {
				t.Errorf("id %d: the refused rebind disturbed the first binding", id)
			}
		}
	})

	t.Run("data before meta", func(t *testing.T) {
		for _, kind := range []byte{FrameData, FrameBatch} {
			for _, id := range []uint32{2, 40, 5000, math.MaxUint32} {
				// id 1 is bound, so 2 and 40 fall inside the dense window.
				r := NewReader(bytes.NewReader(cat(
					metaFrame(1, a), rawFrame(kind, id, a.Size, make([]byte, a.Size)))))
				if _, err := r.ReadMessage(); !errors.Is(err, ErrProtocol) {
					t.Errorf("kind %d for unbound id %d: %v, want ErrProtocol", kind, id, err)
				}
			}
		}
	})

	t.Run("Reset forgets everything", func(t *testing.T) {
		r := NewReader(bytes.NewReader(cat(metaFrame(1, a), metaFrame(70000, a), dataFrame(1, a))))
		if _, err := r.ReadMessage(); err != nil {
			t.Fatal(err)
		}
		r.Reset(bytes.NewReader(cat(dataFrame(1, a))))
		if _, err := r.ReadMessage(); !errors.Is(err, ErrProtocol) {
			t.Errorf("data for an id bound before Reset: %v, want ErrProtocol", err)
		}
		// The same id may now name a different layout, and ordinals restart.
		r.Reset(bytes.NewReader(cat(metaFrame(70000, aOther), dataFrame(70000, aOther))))
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if m.Ord != 0 || m.Format.Order != aOther.Order {
			t.Errorf("after Reset: ordinal %d order %v, want 0 and the new layout", m.Ord, m.Format.Order)
		}
		if _, err := r.ReadMessage(); err != io.EOF {
			t.Errorf("end of stream: %v", err)
		}
	})
}
