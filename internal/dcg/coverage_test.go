package dcg

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

// pairSchema declares one field of each of two types, so matching by name
// forces a cross-type conversion.
func crossFormats(t *testing.T, from, to abi.CType, count int) (*wire.Format, *wire.Format) {
	t.Helper()
	w := wire.MustLayout(&wire.Schema{Name: "x", Fields: []wire.FieldSpec{
		{Name: "v", Type: from, Count: count}}}, &abi.SparcV8)
	n := wire.MustLayout(&wire.Schema{Name: "x", Fields: []wire.FieldSpec{
		{Name: "v", Type: to, Count: count}}}, &abi.X86)
	return w, n
}

// TestFloatWidthConversionDCG exercises the float 4<->8 conversion loops
// (both directions, both byte-order combinations) and checks values.
func TestFloatWidthConversionDCG(t *testing.T) {
	cases := []struct{ from, to abi.CType }{
		{abi.Float, abi.Double},
		{abi.Double, abi.Float},
	}
	vals := []float64{0, 1.5, -2.25, 1024, -0.0078125}
	for _, c := range cases {
		for _, arches := range [][2]abi.Arch{
			{abi.SparcV8, abi.X86}, // BE -> LE
			{abi.X86, abi.SparcV8}, // LE -> BE
			{abi.X86, abi.I960},    // LE -> LE
			{abi.SparcV8, abi.PPC32},
		} {
			w := wire.MustLayout(&wire.Schema{Name: "x", Fields: []wire.FieldSpec{
				{Name: "v", Type: c.from, Count: len(vals)}}}, &arches[0])
			n := wire.MustLayout(&wire.Schema{Name: "x", Fields: []wire.FieldSpec{
				{Name: "v", Type: c.to, Count: len(vals)}}}, &arches[1])
			plan, err := convert.NewPlan(w, n)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(plan)
			if err != nil {
				t.Fatal(err)
			}
			src := native.New(w)
			for i, v := range vals {
				src.MustSetFloat("v", i, v)
			}
			dst := native.New(n)
			if err := prog.Convert(dst.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			for i, v := range vals {
				if got, _ := dst.Float("v", i); got != v {
					t.Errorf("%v->%v %s->%s: v[%d] = %v, want %v",
						c.from, c.to, arches[0].Name, arches[1].Name, i, got, v)
				}
			}
		}
	}
}

// TestIntWidthMatrixDCG exercises every integer width pair the generic
// loader/storer fallback handles (1,2,4,8 in both signedness and both
// orders), validating against the interpreter.
func TestIntWidthMatrixDCG(t *testing.T) {
	types := []abi.CType{abi.Char, abi.Short, abi.UShort, abi.Int, abi.UInt,
		abi.Long, abi.ULong, abi.LongLong, abi.ULongLong}
	for _, from := range types {
		for _, to := range types {
			w, n := crossFormats(t, from, to, 5)
			plan, err := convert.NewPlan(w, n)
			if err != nil {
				t.Fatalf("%v->%v: %v", from, to, err)
			}
			prog, err := Compile(plan)
			if err != nil {
				t.Fatalf("%v->%v: %v", from, to, err)
			}
			src := native.New(w)
			for i, v := range []int64{0, 1, -1, 100, -100} {
				src.MustSetInt("v", i, v)
			}
			want := native.New(n)
			if err := convert.NewInterp(plan).Convert(want.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			got := native.New(n)
			if err := prog.Convert(got.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			if string(got.Buf) != string(want.Buf) {
				t.Errorf("%v -> %v: dcg and interp disagree", from, to)
			}
		}
	}
}

// TestCompileUnoptimizedEquivalent: the unoptimized program produces the
// same output as the optimized one (only slower).
func TestCompileUnoptimizedEquivalent(t *testing.T) {
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := CompileUnoptimized(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Without shuffle regions every instruction is one op, so the op
	// counts compare the two instruction streams.
	withoutShuffle(t, func() {
		o, _ := Compile(plan)
		r, _ := CompileUnoptimized(plan)
		if len(r.Ops()) <= len(o.Ops()) {
			t.Errorf("unoptimized program is not longer (%d <= %d ops)", len(r.Ops()), len(o.Ops()))
		}
	})
	src := native.New(wf)
	native.FillDeterministic(src, 3)
	a, b := native.New(nf), native.New(nf)
	if err := opt.Convert(a.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if err := raw.Convert(b.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if string(a.Buf) != string(b.Buf) {
		t.Error("optimized and unoptimized outputs differ")
	}
}
