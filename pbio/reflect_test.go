package pbio

import (
	"bytes"
	"strings"
	"testing"
)

type sample struct {
	Node      int32
	Timestamp float64
	Iter      int64
	Tag       string `pbio:"tag,size=16"`
	Residual  float32
	Flags     uint32
	Values    [4]float64
	Extra     []int32 `pbio:"extra,size=3"`
	hidden    int     // unexported: skipped
	Skipped   int32   `pbio:"-"`
}

func TestRegisterStructAndRoundTrip(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	sf, err := sctx.RegisterStruct("sample", sample{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.RegisterStruct("sample", &sample{}) // pointer template also fine
	if err != nil {
		t.Fatal(err)
	}

	in := sample{
		Node: 3, Timestamp: 9.75, Iter: -100, Tag: "hello",
		Residual: 0.5, Flags: 7,
		Values: [4]float64{1, 2.5, 3, 4.25},
		Extra:  []int32{10, 20, 30},
		hidden: 99, Skipped: 42,
	}
	rec, err := sf.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	var out sample
	if err := m.DecodeStruct(rf, &out); err != nil {
		t.Fatal(err)
	}
	in.hidden, in.Skipped = 0, 0 // not transmitted
	if out.Node != in.Node || out.Timestamp != in.Timestamp || out.Iter != in.Iter ||
		out.Tag != in.Tag || out.Residual != in.Residual || out.Flags != in.Flags ||
		out.Values != in.Values {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	if len(out.Extra) != 3 || out.Extra[0] != 10 || out.Extra[2] != 30 {
		t.Errorf("Extra = %v", out.Extra)
	}
	if out.Skipped != 0 {
		t.Errorf("Skipped = %d, should not travel", out.Skipped)
	}
}

func TestStructFieldNamesMatchRegisterNames(t *testing.T) {
	// Struct-derived formats interoperate with hand-registered ones:
	// lower-cased Go names match the C-style field names.
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	type point struct {
		X float64
		Y float64
	}
	sf, err := sctx.RegisterStruct("point", point{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("point", F("x", Double), F("y", Double))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sf.Marshal(point{X: 1.5, Y: -2.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Decode(rf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Float("x", 0); v != 1.5 {
		t.Errorf("x = %v", v)
	}
	if v, _ := got.Float("y", 0); v != -2.5 {
		t.Errorf("y = %v", v)
	}
}

func TestStructTypeExtensionAcrossVersions(t *testing.T) {
	// v2 sender struct has an extra field; v1 receiver struct ignores it.
	type v1 struct {
		A int32
		B float64
	}
	type v2 struct {
		New float64 // unexpected leading field, the paper's worst case
		A   int32
		B   float64
	}
	sctx := ctxFor(t, "x86")
	rctx := ctxFor(t, "x86")
	sf, err := sctx.RegisterStruct("msg", v2{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.RegisterStruct("msg", v1{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sf.Marshal(v2{New: 9, A: 4, B: 2.25})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sctx.NewWriter(&buf).Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	var out v1
	if err := m.DecodeStruct(rf, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 4 || out.B != 2.25 {
		t.Errorf("out = %+v", out)
	}
}

func TestUnmarshalLocal(t *testing.T) {
	ctx := ctxFor(t, "x86")
	type rec struct {
		V [3]float32
		N uint16
	}
	sf, err := ctx.RegisterStruct("r", rec{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sf.Marshal(rec{V: [3]float32{1, 2, 3}, N: 65535})
	if err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := sf.Unmarshal(r, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != [3]float32{1, 2, 3} || out.N != 65535 {
		t.Errorf("out = %+v", out)
	}
	// Wrong targets rejected.
	if err := sf.Unmarshal(r, out); err == nil {
		t.Error("non-pointer accepted")
	}
	var wrong sample
	if err := sf.Unmarshal(r, &wrong); err == nil {
		t.Error("wrong struct type accepted")
	}
}

func TestRegisterStructErrors(t *testing.T) {
	ctx := ctxFor(t, "x86")
	cases := []struct {
		name     string
		template any
	}{
		{"nil", nil},
		{"non-struct", 42},
		{"no usable fields", struct{ hidden int }{}},
		{"string without size", struct{ S string }{}},
		{"slice without size", struct{ S []int32 }{}},
		{"unsupported type", struct{ M map[string]int }{}},
		{"unsupported elem", struct{ A [3]string }{}},
		{"bad size tag", struct {
			S string `pbio:"s,size=zero"`
		}{}},
		{"int (platform-dependent)", struct{ N int }{}},
		{"non-positive size tag", struct {
			S string `pbio:"s,size=0"`
		}{}},
		{"unsupported slice elem", struct {
			S []string `pbio:"s,size=2"`
		}{}},
		{"zero-length array", struct{ A [0]int32 }{}},
		{"reserved character in wire name", struct {
			V int32 `pbio:"a<b"`
		}{}},
		{"nested struct with no usable fields", struct{ In struct{ hidden int } }{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ctx.RegisterStruct("x", c.template); err == nil {
				t.Errorf("accepted %s", c.name)
			}
		})
	}
}

func TestRegisterStructDuplicateWireNames(t *testing.T) {
	ctx := ctxFor(t, "x86")
	cases := []struct {
		name     string
		template any
		mention  []string // both Go field names must appear in the error
	}{
		{"explicit tag collides with default", struct {
			Temp float64
			T    float64 `pbio:"temp"`
		}{}, []string{"T", "Temp"}},
		{"two explicit tags collide", struct {
			A int32 `pbio:"v"`
			B int32 `pbio:"v"`
		}{}, []string{"B", "A"}},
		{"names collide after lower-casing", struct {
			Value int32 `pbio:"V"`
			V     int32
		}{}, []string{"V", "Value"}},
		{"collision in nested struct", struct {
			Inner struct {
				X int32
				Y int32 `pbio:"x"`
			}
		}{}, []string{"Y", "X"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ctx.RegisterStruct("x", c.template)
			if err == nil {
				t.Fatalf("accepted template with duplicate wire names")
			}
			for _, want := range c.mention {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name field %s", err, want)
				}
			}
		})
	}

	// Distinct names that only differ before tagging stay accepted.
	ok := struct {
		Temp float64
		T    float64 `pbio:"t2"`
	}{}
	if _, err := ctx.RegisterStruct("ok", ok); err != nil {
		t.Fatalf("distinct wire names rejected: %v", err)
	}
}

func TestMarshalErrors(t *testing.T) {
	ctx := ctxFor(t, "x86")
	type rec struct {
		S []int32 `pbio:"s,size=2"`
	}
	sf, err := ctx.RegisterStruct("r", rec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Marshal(rec{S: []int32{1, 2, 3}}); err == nil {
		t.Error("oversized slice accepted")
	}
	if _, err := sf.Marshal(struct{ X int32 }{}); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := sf.Marshal((*rec)(nil)); err == nil {
		t.Error("nil pointer accepted")
	}
	// Short slices zero-fill.
	r, err := sf.Marshal(rec{S: []int32{7}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Int("s", 0); v != 7 {
		t.Errorf("s[0] = %d", v)
	}
	if v, _ := r.Int("s", 1); v != 0 {
		t.Errorf("s[1] = %d", v)
	}
}

func TestDecodeStructErrors(t *testing.T) {
	ctx := ctxFor(t, "x86")
	type rec struct{ A int32 }
	sf, err := ctx.RegisterStruct("r", rec{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r, err := sf.Marshal(rec{A: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.NewWriter(&buf).Write(r); err != nil {
		t.Fatal(err)
	}
	m, err := ctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	var out rec
	if err := m.DecodeStruct(sf, out); err == nil {
		t.Error("non-pointer accepted")
	}
	var wrong sample
	if err := m.DecodeStruct(sf, &wrong); err == nil {
		t.Error("wrong struct type accepted")
	}
	if err := m.DecodeStruct(sf, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 1 {
		t.Errorf("A = %d", out.A)
	}
}
