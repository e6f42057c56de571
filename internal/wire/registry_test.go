package wire

import (
	"sync"
	"testing"

	"repro/internal/abi"
)

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	f := MustLayout(testSchema(), &abi.SparcV8)
	id, added, err := r.Register(f)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !added || id == 0 {
		t.Fatalf("Register = (%d, %v), want nonzero id and added", id, added)
	}
	if got := r.Lookup(id); got != f {
		t.Error("Lookup returned different format")
	}
	if r.Lookup(id+100) != nil {
		t.Error("Lookup of unknown id != nil")
	}
}

func TestRegistryDedupByLayout(t *testing.T) {
	r := NewRegistry()
	a := MustLayout(testSchema(), &abi.SparcV8)
	b := MustLayout(testSchema(), &abi.SparcV8)
	id1, added1, _ := r.Register(a)
	id2, added2, _ := r.Register(b)
	if id1 != id2 {
		t.Errorf("identical layouts got distinct IDs %d, %d", id1, id2)
	}
	if !added1 || added2 {
		t.Errorf("added flags = %v, %v; want true, false", added1, added2)
	}
	// A different layout gets a fresh ID.
	c := MustLayout(testSchema(), &abi.X86)
	id3, added3, _ := r.Register(c)
	if id3 == id1 || !added3 {
		t.Errorf("different layout: id=%d added=%v", id3, added3)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	bad := &Format{Name: "", Size: 8}
	if _, _, err := r.Register(bad); err == nil {
		t.Error("Register accepted invalid format")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// Race-detector exercise: concurrent Register/Lookup.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				arch := abi.All[(g+i)%len(abi.All)]
				f := MustLayout(testSchema(), &arch)
				id, _, err := r.Register(f)
				if err != nil {
					t.Errorf("Register: %v", err)
					return
				}
				if r.Lookup(id) == nil {
					t.Error("Lookup after Register = nil")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// abi.All contains arch models with coinciding layouts (e.g. v8/v9,
	// o32), so the registry must have deduped below len(abi.All).
	if r.Len() >= len(abi.All) {
		t.Errorf("Len = %d, expected dedup below %d", r.Len(), len(abi.All))
	}
}
