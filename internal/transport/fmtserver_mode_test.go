package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// TestFormatServerModeRoundTrip exercises the meta-reference path with an
// in-memory registrar/resolver pair standing in for a format server.
func TestFormatServerModeRoundTrip(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	native.FillDeterministic(rec, 9)

	store := map[uint64]*wire.Format{}
	var nextID uint64 = 1000

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetRegistrar(func(fm *wire.Format) (uint64, error) {
		nextID++
		store[nextID] = fm
		return nextID, nil
	})
	for i := 0; i < 3; i++ {
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
	}
	if len(store) != 1 {
		t.Errorf("registrar called %d times, want 1", len(store))
	}

	r := NewReader(&buf)
	resolves := 0
	r.SetResolver(func(id uint64) (*wire.Format, error) {
		resolves++
		fm, ok := store[id]
		if !ok {
			return nil, errors.New("unknown id")
		}
		return fm, nil
	})
	for i := 0; i < 3; i++ {
		m, err := r.ReadMessage()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(m.Data) != string(rec.Buf) {
			t.Errorf("record %d: data differs", i)
		}
	}
	if resolves != 1 {
		t.Errorf("resolver called %d times, want 1", resolves)
	}
}

func TestFormatServerModeRegistrarError(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	w := NewWriter(&bytes.Buffer{})
	boom := errors.New("server down")
	w.SetRegistrar(func(*wire.Format) (uint64, error) { return 0, boom })
	err := w.WriteRecord(f, make([]byte, f.Size))
	if !errors.Is(err, boom) {
		t.Errorf("registrar error not propagated: %v", err)
	}
}

func TestFormatServerModeResolverError(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetRegistrar(func(*wire.Format) (uint64, error) { return 77, nil })
	if err := w.WriteRecord(f, make([]byte, f.Size)); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	boom := errors.New("lookup failed")
	r.SetResolver(func(uint64) (*wire.Format, error) { return nil, boom })
	if _, err := r.ReadMessage(); !errors.Is(err, boom) {
		t.Errorf("resolver error not propagated: %v", err)
	}
}

func TestFormatServerModeWithoutResolver(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetRegistrar(func(*wire.Format) (uint64, error) { return 1, nil })
	if err := w.WriteRecord(f, make([]byte, f.Size)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf).ReadMessage(); err == nil {
		t.Error("meta-reference stream read without a resolver")
	}
}

func TestMetaRefBadPayloadLength(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewFrameWriter(&buf).Write(FrameMetaRef, 1, false, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	r.SetResolver(func(uint64) (*wire.Format, error) { return nil, nil })
	if _, err := r.ReadMessage(); err == nil {
		t.Error("2-byte meta reference accepted")
	}
}
