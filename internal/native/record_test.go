package native

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/wire"
)

func mixedSchema() *wire.Schema {
	return &wire.Schema{
		Name: "mixed",
		Fields: []wire.FieldSpec{
			{Name: "node", Type: abi.Int, Count: 1},
			{Name: "timestamp", Type: abi.Double, Count: 1},
			{Name: "iter", Type: abi.Long, Count: 1},
			{Name: "tag", Type: abi.Char, Count: 16},
			{Name: "residual", Type: abi.Float, Count: 1},
			{Name: "count", Type: abi.UInt, Count: 1},
			{Name: "values", Type: abi.Double, Count: 4},
		},
	}
}

func TestIntRoundTripAllArches(t *testing.T) {
	for _, a := range abi.All {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			r := New(wire.MustLayout(mixedSchema(), &a))
			for _, v := range []int64{0, 1, -1, 12345, -30000} {
				if err := r.SetInt("iter", 0, v); err != nil {
					t.Fatalf("SetInt: %v", err)
				}
				got, err := r.Int("iter", 0)
				if err != nil {
					t.Fatalf("Int: %v", err)
				}
				if got != v {
					t.Errorf("iter = %d, want %d", got, v)
				}
			}
		})
	}
}

func TestUnsignedDoesNotSignExtend(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.SparcV8))
	r.MustSetInt("count", 0, -1) // stored as 0xFFFFFFFF
	got, _ := r.Int("count", 0)
	if got != 0xFFFFFFFF {
		t.Errorf("unsigned read = %d, want %d", got, int64(0xFFFFFFFF))
	}
}

func TestFloatRoundTrip(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.X86))
	r.MustSetFloat("timestamp", 0, 3.14159)
	if got, _ := r.Float("timestamp", 0); got != 3.14159 {
		t.Errorf("timestamp = %v", got)
	}
	// float32 narrowing: 1.5 is exact.
	r.MustSetFloat("residual", 0, 1.5)
	if got, _ := r.Float("residual", 0); got != 1.5 {
		t.Errorf("residual = %v", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.SparcV8))
	r.MustSetString("tag", "hello")
	if got, _ := r.String("tag"); got != "hello" {
		t.Errorf("tag = %q", got)
	}
	// Truncation at field length.
	r.MustSetString("tag", "0123456789abcdefOVERFLOW")
	if got, _ := r.String("tag"); got != "0123456789abcdef" {
		t.Errorf("truncated tag = %q", got)
	}
	// Re-setting a shorter string clears the remainder.
	r.MustSetString("tag", "xy")
	if got, _ := r.String("tag"); got != "xy" {
		t.Errorf("short tag = %q", got)
	}
}

func TestArrayElements(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.SparcV8))
	for i := 0; i < 4; i++ {
		r.MustSetFloat("values", i, float64(i)*2.5)
	}
	for i := 0; i < 4; i++ {
		if got, _ := r.Float("values", i); got != float64(i)*2.5 {
			t.Errorf("values[%d] = %v, want %v", i, got, float64(i)*2.5)
		}
	}
	if _, err := r.Float("values", 4); err == nil {
		t.Error("out-of-range element read accepted")
	}
	if err := r.SetFloat("values", -1, 0); err == nil {
		t.Error("negative element write accepted")
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.X86))
	if err := r.SetInt("timestamp", 0, 1); err == nil {
		t.Error("SetInt on double accepted")
	}
	if _, err := r.Int("timestamp", 0); err == nil {
		t.Error("Int on double accepted")
	}
	if err := r.SetFloat("node", 0, 1); err == nil {
		t.Error("SetFloat on int accepted")
	}
	if _, err := r.Float("node", 0); err == nil {
		t.Error("Float on int accepted")
	}
	if err := r.SetString("node", "x"); err == nil {
		t.Error("SetString on int accepted")
	}
	if _, err := r.String("node"); err == nil {
		t.Error("String on int accepted")
	}
	if _, err := r.Int("nosuch", 0); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestByteOrderInBuffer(t *testing.T) {
	// The big-endian record must hold big-endian bytes at the field
	// offset — this is what actually goes on the wire.
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	r := New(f)
	r.MustSetInt("node", 0, 0x01020304)
	off := f.FieldByName("node").Offset
	want := []byte{1, 2, 3, 4}
	for i, b := range want {
		if r.Buf[off+i] != b {
			t.Fatalf("big-endian bytes = % x, want % x", r.Buf[off:off+4], want)
		}
	}
	fle := wire.MustLayout(mixedSchema(), &abi.X86)
	rle := New(fle)
	rle.MustSetInt("node", 0, 0x01020304)
	offle := fle.FieldByName("node").Offset
	wantle := []byte{4, 3, 2, 1}
	for i, b := range wantle {
		if rle.Buf[offle+i] != b {
			t.Fatalf("little-endian bytes = % x, want % x", rle.Buf[offle:offle+4], wantle)
		}
	}
}

func TestView(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.X86)
	buf := make([]byte, f.Size+10)
	r, err := View(f, buf)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	r.MustSetInt("node", 0, 42)
	if buf[f.FieldByName("node").Offset] != 42 {
		t.Error("View does not alias the buffer")
	}
	if _, err := View(f, make([]byte, f.Size-1)); err == nil {
		t.Error("View accepted short buffer")
	}
}

func TestClone(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.X86))
	r.MustSetInt("node", 0, 7)
	c := r.Clone()
	c.MustSetInt("node", 0, 9)
	if got, _ := r.Int("node", 0); got != 7 {
		t.Error("Clone aliases original")
	}
}

func TestBytes(t *testing.T) {
	f := wire.MustLayout(mixedSchema(), &abi.X86)
	r := New(f)
	b, err := r.Bytes("values")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 32 {
		t.Errorf("Bytes(values) len = %d, want 32", len(b))
	}
	if _, err := r.Bytes("nosuch"); err == nil {
		t.Error("Bytes of unknown field accepted")
	}
}

func TestFillDeterministicAndSemanticEqual(t *testing.T) {
	fa := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	fb := wire.MustLayout(mixedSchema(), &abi.X86)
	a := New(fa)
	b := New(fb)
	FillDeterministic(a, 42)
	FillDeterministic(b, 42)
	// Same seed, different layouts: values must compare equal.
	if diff := SemanticEqual(a, b); diff != "" {
		t.Errorf("same-seed records differ: %s", diff)
	}
	FillDeterministic(b, 43)
	if diff := SemanticEqual(a, b); diff == "" {
		t.Error("different-seed records compare equal")
	}
}

func TestSemanticEqualIgnoresExtraFields(t *testing.T) {
	s := mixedSchema()
	ext := &wire.Schema{Name: s.Name, Fields: append([]wire.FieldSpec{
		{Name: "extra", Type: abi.Int, Count: 1}}, s.Fields...)}
	a := New(wire.MustLayout(s, &abi.X86))
	b := New(wire.MustLayout(ext, &abi.X86))
	FillDeterministic(a, 1)
	for i := range a.Format.Fields {
		f := &a.Format.Fields[i]
		copy(b.Buf[b.Format.FieldByName(f.Name).Offset:], a.Buf[f.Offset:f.End()])
	}
	if diff := SemanticEqual(a, b); diff != "" {
		t.Errorf("intersection differs: %s", diff)
	}
}

func TestMustSettersPanic(t *testing.T) {
	r := New(wire.MustLayout(mixedSchema(), &abi.X86))
	for name, fn := range map[string]func(){
		"MustSetInt":    func() { r.MustSetInt("nosuch", 0, 1) },
		"MustSetFloat":  func() { r.MustSetFloat("nosuch", 0, 1) },
		"MustSetString": func() { r.MustSetString("nosuch", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on unknown field did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAccessorErrorTexts pins every accessor's error text byte for byte:
// the accessors resolve names through wire.Cursor, and applications (and
// the benchmark oracle) match on what they always said.
func TestAccessorErrorTexts(t *testing.T) {
	s := mixedSchema()
	s.Fields = append(s.Fields, wire.FieldSpec{Name: "pos", Count: 2, Sub: &wire.Schema{
		Name: "point", Fields: []wire.FieldSpec{{Name: "x", Type: abi.Double, Count: 1}},
	}})
	r := New(wire.MustLayout(s, &abi.SparcV8))
	// A floating-point field of a width Validate rejects: only a Format
	// literal can carry one.
	half := New(&wire.Format{Name: "half", Order: abi.BigEndian, Size: 2, Fields: []wire.Field{
		{Name: "h", Type: abi.Float, Count: 1, Size: 2},
	}})
	errOf := func(_ any, err error) error { return err }
	for _, c := range []struct {
		call string
		err  error
		want string
	}{
		{"SetInt missing", r.SetInt("nope", 0, 1), `native: format "mixed" has no field "nope"`},
		{"Int missing", errOf(r.Int("nope", 0)), `native: format "mixed" has no field "nope"`},
		{"SetFloat missing", r.SetFloat("", 0, 1), `native: format "mixed" has no field ""`},
		{"Float missing", errOf(r.Float("value", 0)), `native: format "mixed" has no field "value"`},
		{"SetString missing", r.SetString("tags", "x"), `native: format "mixed" has no field "tags"`},
		{"String missing", errOf(r.String("ta")), `native: format "mixed" has no field "ta"`},
		{"Sub missing", errOf(r.Sub("po", 0)), `native: format "mixed" has no field "po"`},
		{"Bytes missing", errOf(r.Bytes("nope")), `native: format "mixed" has no field "nope"`},

		{"SetInt on double", r.SetInt("timestamp", 0, 1), `native: field "timestamp" is not an integer field`},
		{"Int on float", errOf(r.Int("residual", 0)), `native: field "residual" is not an integer field`},
		{"SetInt on struct", r.SetInt("pos", 0, 1), `native: field "pos" is not an integer field`},
		{"Int on struct", errOf(r.Int("pos", 0)), `native: field "pos" is not an integer field`},
		{"SetFloat on long", r.SetFloat("iter", 0, 1), `native: field "iter" is not a floating-point field`},
		{"Float on char", errOf(r.Float("tag", 0)), `native: field "tag" is not a floating-point field`},
		{"Float on struct", errOf(r.Float("pos", 0)), `native: field "pos" is not a floating-point field`},
		{"SetString on int", r.SetString("node", "x"), `native: field "node" is not a char field`},
		{"String on double", errOf(r.String("values")), `native: field "values" is not a char field`},
		{"String on struct", errOf(r.String("pos")), `native: field "pos" is not a char field`},
		{"Sub on int", errOf(r.Sub("node", 0)), `native: field "node" is int, not a structure`},

		{"SetInt index", r.SetInt("node", 1, 1), `native: index 1 out of range for field "node"[1]`},
		{"Int index", errOf(r.Int("tag", 16)), `native: index 16 out of range for field "tag"[16]`},
		{"SetFloat index", r.SetFloat("values", -1, 1), `native: index -1 out of range for field "values"[4]`},
		{"Float index", errOf(r.Float("values", 4)), `native: index 4 out of range for field "values"[4]`},
		{"Sub index", errOf(r.Sub("pos", 2)), `native: index 2 out of range for field "pos"[2]`},

		{"SetFloat width", half.SetFloat("h", 0, 1), `native: field "h" has float size 2`},
		{"Float width", errOf(half.Float("h", 0)), `native: field "h" has float size 2`},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.call, c.err, c.want)
		}
	}
	// What must keep working beside them: char fields are integer fields
	// too, and the last element is in range.
	if err := r.SetInt("tag", 15, 'z'); err != nil {
		t.Error(err)
	}
	if v, err := r.Int("tag", 15); err != nil || v != 'z' {
		t.Errorf("Int(tag, 15) = %d, %v", v, err)
	}
}
