package dcg

import (
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

func particleSchema(n int) *wire.Schema {
	return &wire.Schema{
		Name: "particles",
		Fields: []wire.FieldSpec{
			{Name: "hdr", Count: 1, Sub: &wire.Schema{
				Name: "header",
				Fields: []wire.FieldSpec{
					{Name: "step", Type: abi.Int, Count: 1},
					{Name: "t", Type: abi.Double, Count: 1},
					{Name: "label", Type: abi.Char, Count: 8},
				},
			}},
			{Name: "count", Type: abi.Int, Count: 1},
			{Name: "p", Count: n, Sub: &wire.Schema{
				Name: "particle",
				Fields: []wire.FieldSpec{
					{Name: "id", Type: abi.Int, Count: 1},
					{Name: "pos", Count: 1, Sub: &wire.Schema{
						Name: "vec3",
						Fields: []wire.FieldSpec{
							{Name: "x", Type: abi.Double, Count: 1},
							{Name: "y", Type: abi.Double, Count: 1},
							{Name: "z", Type: abi.Double, Count: 1},
						},
					}},
					{Name: "charge", Type: abi.Float, Count: 1},
				},
			}},
		},
	}
}

// TestNestedCompiledMatchesInterpreted extends the central equivalence
// property to nested structures across all architecture pairs.
func TestNestedCompiledMatchesInterpreted(t *testing.T) {
	s := particleSchema(4)
	for _, from := range abi.All {
		for _, to := range abi.All {
			from, to := from, to
			wf := wire.MustLayout(s, &from)
			nf := wire.MustLayout(s, &to)
			plan, err := convert.NewPlan(wf, nf)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(plan)
			if err != nil {
				t.Fatalf("%s->%s: %v", from.Name, to.Name, err)
			}
			src := native.New(wf)
			native.FillDeterministic(src, 17)
			want := native.New(nf)
			if err := convert.NewInterp(plan).Convert(want.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			got := native.New(nf)
			if err := prog.Convert(got.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			if diff := fieldBytesDiff(nf, got.Buf, want.Buf); diff != "" {
				t.Errorf("%s->%s: nested compiled and interpreted outputs differ on %s\n%s",
					from.Name, to.Name, diff, DisassembleBatch(prog.Ops()))
			}
		}
	}
}

func TestNestedProgramHasCalls(t *testing.T) {
	// Above the inline limit, struct arrays compile to a subroutine call.
	wf := wire.MustLayout(particleSchema(100), &abi.SparcV8)
	nf := wire.MustLayout(particleSchema(100), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	asm := DisassembleBatch(prog.Ops())
	if !strings.Contains(asm, "call") {
		t.Errorf("large nested array compiled without a call instruction:\n%s", asm)
	}
}

func TestNestedSmallCountInlined(t *testing.T) {
	// At or below the inline limit, struct conversion is inlined into
	// straight-line code that the peephole pass can fuse.
	wf := wire.MustLayout(particleSchema(4), &abi.SparcV8)
	nf := wire.MustLayout(particleSchema(4), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	asm := DisassembleBatch(prog.Ops())
	if strings.Contains(asm, "call") {
		t.Errorf("small nested array not inlined:\n%s", asm)
	}
	// Correctness after inlining.
	src := native.New(wf)
	native.FillDeterministic(src, 9)
	dst := native.New(nf)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(src, dst); diff != "" {
		t.Errorf("inlined conversion lost data: %s", diff)
	}
}

func TestNestedProgramPreservesValues(t *testing.T) {
	wf := wire.MustLayout(particleSchema(6), &abi.SparcV9x64)
	nf := wire.MustLayout(particleSchema(6), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	src := native.New(wf)
	native.FillDeterministic(src, 41)
	dst := native.New(nf)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(src, dst); diff != "" {
		t.Errorf("nested DCG conversion lost data: %s", diff)
	}
}

func TestNestedCallStringAndDisassemble(t *testing.T) {
	in := Instr{Op: ICall, Dst: 8, Src: 16, Count: 3, SrcW: 40, DstW: 36,
		Sub: []Instr{{Op: ISwap, Width: 8, Count: 3}}}
	if !strings.Contains(in.String(), "call") {
		t.Errorf("ICall String = %q", in.String())
	}
	asm := Disassemble([]Instr{in})
	if !strings.Contains(asm, "swap8") {
		t.Errorf("Disassemble does not show subroutine body:\n%s", asm)
	}
}
