package dcg

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
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
			{Name: "flags", Type: abi.UInt, Count: 1},
			{Name: "values", Type: abi.Double, Count: 8},
		},
	}
}

func compileFor(t *testing.T, from, to *abi.Arch) *Program {
	t.Helper()
	return compileSchemas(t, mixedSchema(), from, mixedSchema(), to)
}

// compileSchemas compiles the conversion from wireSchema laid out for
// from to nativeSchema laid out for to.
func compileSchemas(t *testing.T, wireSchema *wire.Schema, from *abi.Arch, nativeSchema *wire.Schema, to *abi.Arch) *Program {
	t.Helper()
	return compileFormats(t, wire.MustLayout(wireSchema, from), wire.MustLayout(nativeSchema, to))
}

// compileFormats compiles the conversion from wf to nf.
func compileFormats(t *testing.T, wf, nf *wire.Format) *Program {
	t.Helper()
	p, err := convert.NewPlan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// optimizedCode returns the peephole-optimized instruction stream of a
// program's plan — the input of the fusion pass.
func optimizedCode(t *testing.T, prog *Program) []Instr {
	t.Helper()
	code, err := Emit(prog.Plan())
	if err != nil {
		t.Fatal(err)
	}
	return Optimize(code)
}

// withoutShuffle runs f on the CPU path that lacks the SIMD shuffle
// unit: no shuffle ops are built and swapBlock declines every run.
func withoutShuffle(t *testing.T, f func()) {
	t.Helper()
	old := useSwapAsm
	useSwapAsm = false
	defer func() { useSwapAsm = old }()
	f()
}

// TestCompiledMatchesInterpreted is the central equivalence property: for
// every architecture pair, the generated program and the interpreter must
// produce identical field bytes (padding content is undefined: gap fusion
// and shuffle identity lanes may leave source bytes there).
func TestCompiledMatchesInterpreted(t *testing.T) {
	schemas := []*wire.Schema{
		mixedSchema(),
		{Name: "ints", Fields: []wire.FieldSpec{
			{Name: "a", Type: abi.Short, Count: 5},
			{Name: "b", Type: abi.Long, Count: 3},
			{Name: "c", Type: abi.ULong, Count: 2},
			{Name: "d", Type: abi.LongLong, Count: 1},
			{Name: "e", Type: abi.UShort, Count: 7},
		}},
		{Name: "floats", Fields: []wire.FieldSpec{
			{Name: "f", Type: abi.Float, Count: 9},
			{Name: "g", Type: abi.Double, Count: 5},
		}},
		{Name: "chars", Fields: []wire.FieldSpec{
			{Name: "s1", Type: abi.Char, Count: 3},
			{Name: "x", Type: abi.Int, Count: 1},
			{Name: "s2", Type: abi.Char, Count: 31},
		}},
	}
	for _, s := range schemas {
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
					t.Fatalf("%s->%s: Compile: %v", from.Name, to.Name, err)
				}
				src := native.New(wf)
				native.FillDeterministic(src, int64(len(s.Fields))*31)
				want := native.New(nf)
				if err := convert.NewInterp(plan).Convert(want.Buf, src.Buf); err != nil {
					t.Fatal(err)
				}
				got := native.New(nf)
				if err := prog.Convert(got.Buf, src.Buf); err != nil {
					t.Fatal(err)
				}
				if diff := fieldBytesDiff(nf, got.Buf, want.Buf); diff != "" {
					t.Errorf("%s: %s->%s: compiled and interpreted outputs differ on "+diff+"\nplan:\n%s\ncode:\n%s",
						s.Name, from.Name, to.Name, plan, DisassembleBatch(prog.Ops()))
				}
			}
		}
	}
}

func TestCompiledPreservesValues(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	src := native.New(prog.Plan().Wire)
	native.FillDeterministic(src, 1234)
	dst := native.New(prog.Plan().Native)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(src, dst); diff != "" {
		t.Errorf("conversion lost data: %s", diff)
	}
}

func TestNoOpProgram(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.SparcV8)
	if ops := prog.Ops(); len(ops) != 1 || ops[0].Kind != BBulkCopy {
		t.Errorf("no-op program is not a single bulk copy:\n%s", DisassembleBatch(ops))
	}
	src := native.New(prog.Plan().Wire)
	native.FillDeterministic(src, 7)
	dst := native.New(prog.Plan().Native)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if string(dst.Buf) != string(src.Buf) {
		t.Error("no-op copy differs")
	}
	// Aliased no-op conversion must not touch the buffer.
	before := string(src.Buf)
	if err := prog.Convert(src.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if string(src.Buf) != before {
		t.Error("aliased no-op modified buffer")
	}
}

func TestOptimizeCoalescesCopies(t *testing.T) {
	// Homogeneous layouts shifted by a constant offset (the paper's
	// Figure 7 mismatch case) must fuse into very few block moves —
	// ideally one.
	base := mixedSchema()
	ext := &wire.Schema{Name: base.Name, Fields: append(
		[]wire.FieldSpec{{Name: "hdr", Type: abi.Double, Count: 1}}, base.Fields...)}
	prog := compileSchemas(t, ext, &abi.X86, base, &abi.X86)
	code := optimizedCode(t, prog)
	for _, in := range code {
		if in.Op != IMovBlk {
			t.Fatalf("unexpected non-move instruction: %v", in)
		}
	}
	if len(code) > 2 {
		t.Errorf("shifted-layout conversion uses %d moves, want <= 2:\n%s",
			len(code), Disassemble(code))
	}
	// Moves stay copies: no shuffle, one kernel per fused move.
	for _, op := range prog.Ops() {
		if op.Kind != BMove {
			t.Fatalf("move-only program has a %v op:\n%s", op.Kind, DisassembleBatch(prog.Ops()))
		}
	}
	// The fused program must still be correct.
	src := native.New(prog.Plan().Wire)
	native.FillDeterministic(src, 3)
	dst := native.New(prog.Plan().Native)
	if err := prog.Convert(dst.Buf, src.Buf); err != nil {
		t.Fatal(err)
	}
	if diff := native.SemanticEqual(dst, src); diff != "" {
		t.Errorf("fused conversion corrupted data: %s", diff)
	}
}

func TestOptimizeCoalescesSwaps(t *testing.T) {
	// sparc -> x86 on a pure double record: the byte-swap of all
	// adjacent doubles (one per field op) must fuse into one swap8.
	s := &wire.Schema{Name: "d", Fields: []wire.FieldSpec{
		{Name: "a", Type: abi.Double, Count: 4},
		{Name: "b", Type: abi.Double, Count: 4},
		{Name: "c", Type: abi.Double, Count: 4},
	}}
	code := optimizedCode(t, compileSchemas(t, s, &abi.SparcV8, s, &abi.X86))
	if len(code) != 1 || code[0].Op != ISwap || code[0].Count != 12 {
		t.Errorf("want single swap8 x12, got:\n%s", Disassemble(code))
	}
}

// TestOptimizeConsumesInput pins the documented contract: the result
// aliases the argument, whose tail is left as it was.
func TestOptimizeConsumesInput(t *testing.T) {
	code := []Instr{
		{Op: ISwap, Dst: 0, Src: 0, Count: 1, Width: 4},
		{Op: ISwap, Dst: 4, Src: 4, Count: 1, Width: 4},
		{Op: IMovBlk, Dst: 8, Src: 8, Len: 4},
	}
	out := Optimize(code)
	if len(out) != 2 || &out[0] != &code[0] || code[0].Count != 2 || code[1].Op != IMovBlk {
		t.Errorf("Optimize did not compact its argument in place:\n%s", Disassemble(code))
	}
}

func TestOptimizeDoesNotFuseAcrossUnequalGaps(t *testing.T) {
	code := []Instr{
		{Op: IMovBlk, Dst: 0, Src: 0, Len: 4},
		{Op: IMovBlk, Dst: 4, Src: 8, Len: 4}, // src gap 4, dst gap 0
	}
	out := Optimize(code)
	if len(out) != 2 {
		t.Errorf("fused moves with unequal gaps:\n%s", Disassemble(out))
	}
}

// TestOptimizeDoesNotFuseAcrossOccupiedGaps: when the stream is out of
// offset order the hole between two moves may hold another field — here
// the widened int written just before — so only exact neighbours fuse.
func TestOptimizeDoesNotFuseAcrossOccupiedGaps(t *testing.T) {
	code := []Instr{
		{Op: ICvtInt, Dst: 8, Src: 8, Count: 1, SrcW: 4, DstW: 8},
		{Op: IMovBlk, Dst: 0, Src: 0, Len: 8},
		{Op: IMovBlk, Dst: 16, Src: 16, Len: 8}, // gap 8 on both sides, owned by the cvti
		{Op: IMovBlk, Dst: 24, Src: 24, Len: 8}, // no gap
	}
	out := Optimize(code)
	if len(out) != 3 || out[2].Dst != 16 || out[2].Len != 16 {
		t.Errorf("want cvti, move 8, move 16:\n%s", Disassemble(out))
	}
}

func TestOptimizeDoesNotFuseAcrossHugeGaps(t *testing.T) {
	code := []Instr{
		{Op: IMovBlk, Dst: 0, Src: 0, Len: 4},
		{Op: IMovBlk, Dst: 4 + 100, Src: 4 + 100, Len: 4},
	}
	out := Optimize(code)
	if len(out) != 2 {
		t.Error("fused moves across a 100-byte gap")
	}
}

func TestOptimizeMergesZeros(t *testing.T) {
	code := []Instr{
		{Op: IZero, Dst: 0, Len: 4},
		{Op: IZero, Dst: 4, Len: 8},
	}
	out := Optimize(code)
	if len(out) != 1 || out[0].Len != 12 {
		t.Errorf("zero merge failed:\n%s", Disassemble(out))
	}
}

// TestProgramInPlace pins the in-place contract on the one engine: for
// an in-place-safe plan, converting with dst and src the same buffer
// yields the field values of the two-buffer interpreted conversion —
// whether or not the CPU path builds shuffle ops.
func TestProgramInPlace(t *testing.T) {
	base := mixedSchema()
	// The homogeneous type-extension case: a dropped leading field
	// shifts every expected field down.
	ext := &wire.Schema{Name: base.Name, Fields: append(
		[]wire.FieldSpec{{Name: "hdr", Type: abi.Int, Count: 4}}, base.Fields...)}
	// Heterogeneous: the dropped leading int shifts a down into the
	// receiver's alignment padding, c and f/g swap in place and share
	// 16-byte blocks (one shuffle region where the CPU has the unit)
	// with the sources of the shifted swap and of iter's 8→4 narrow,
	// which both run after the shuffle.
	want := &wire.Schema{Name: "mix", Fields: []wire.FieldSpec{
		{Name: "a", Type: abi.Int, Count: 1},
		{Name: "c", Type: abi.Double, Count: 1},
		{Name: "f", Type: abi.Float, Count: 1},
		{Name: "g", Type: abi.UInt, Count: 1},
		{Name: "iter", Type: abi.Long, Count: 1},
		{Name: "d", Type: abi.Double, Count: 2},
	}}
	sent := &wire.Schema{Name: "mix", Fields: append(
		[]wire.FieldSpec{{Name: "lead", Type: abi.Int, Count: 1}}, want.Fields...)}
	cases := []struct {
		name         string
		wire, native *wire.Schema
		from, to     *abi.Arch
		shuffles     int // shuffle ops expected where the unit exists
	}{
		{"shifted-moves", ext, base, &abi.X86, &abi.X86, 0},
		{"drop+swap+narrow", sent, want, &abi.SparcV9x64, &abi.StrongARM, 1},
	}
	for _, c := range cases {
		run := func(t *testing.T) {
			prog := compileSchemas(t, c.wire, c.from, c.native, c.to)
			plan := prog.Plan()
			if !plan.InPlace {
				t.Fatalf("expected in-place-safe plan:\n%s", plan)
			}
			shuffles := 0
			for _, op := range prog.Ops() {
				if op.Kind == BShuf {
					shuffles++
				}
			}
			if shufAvailable() && shuffles != c.shuffles || !shufAvailable() && shuffles != 0 {
				t.Fatalf("program has %d shuffle ops:\n%s", shuffles, DisassembleBatch(prog.Ops()))
			}
			src := native.New(plan.Wire)
			native.FillDeterministic(src, 55)
			ref := native.New(plan.Native)
			if err := convert.NewInterp(plan).Convert(ref.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			if err := prog.Convert(src.Buf, src.Buf); err != nil {
				t.Fatal(err)
			}
			if diff := fieldBytesDiff(plan.Native, src.Buf, ref.Buf); diff != "" {
				t.Errorf("in-place compiled conversion corrupted field %s\nplan:\n%s\ncode:\n%s",
					diff, plan, DisassembleBatch(prog.Ops()))
			}
		}
		t.Run(c.name+"/shuffle", func(t *testing.T) {
			if !shufAvailable() {
				t.Skip("no SIMD shuffle unit on this CPU")
			}
			run(t)
		})
		t.Run(c.name+"/no-shuffle", func(t *testing.T) { withoutShuffle(t, func() { run(t) }) })
	}
}

func TestProgramBufferChecks(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := prog.Plan().Wire, prog.Plan().Native
	if err := prog.Convert(make([]byte, nf.Size), make([]byte, wf.Size-1)); err == nil {
		t.Error("short source accepted")
	}
	if err := prog.Convert(make([]byte, nf.Size-1), make([]byte, wf.Size)); err == nil {
		t.Error("short destination accepted")
	}
}

func TestCache(t *testing.T) {
	c := NewCache()
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	p1, err := c.Get(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache did not reuse program")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	// Different target layout compiles a distinct program.
	nf2 := wire.MustLayout(mixedSchema(), &abi.SparcV9x64)
	p3, err := c.Get(wf, nf2)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 || c.Len() != 2 {
		t.Error("cache conflated distinct layout pairs")
	}
}

// Plan and Get answer from one entry: the program is compiled from the
// plan Plan returned, and Plan alone never compiles.
func TestCachePlanThenGetShareOnePlan(t *testing.T) {
	c := NewCache()
	var plans, progs int
	c.OnBuild = func(b Build) {
		if b.Plan == nil || b.Nanos < 0 {
			t.Errorf("build reported without its plan or with a negative duration: %+v", b)
		}
		if b.Program == nil {
			plans++
		} else {
			progs++
		}
	}
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	plan, err := c.Plan(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Plan(wf, nf); again != plan {
		t.Error("Plan built the pair's plan twice")
	}
	if plans != 1 || progs != 0 {
		t.Fatalf("after Plan alone: %d plans and %d programs reported, want 1 and 0", plans, progs)
	}
	prog, err := c.Get(wf, nf)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Plan() != plan {
		t.Error("Get compiled from a plan of its own, not the one Plan returned")
	}
	if _, err := c.Get(wf, nf); err != nil {
		t.Fatal(err)
	}
	if plans != 1 || progs != 1 || c.Len() != 1 {
		t.Errorf("after Plan and Get: %d plans, %d programs, %d entries; want 1 of each", plans, progs, c.Len())
	}
}

// A pair that cannot be planned, or whose plan cannot be compiled, gives
// every caller the same error and files nothing beside it.
func TestCacheKeepsErrors(t *testing.T) {
	c := NewCache()
	c.OnBuild = func(b Build) {
		if b.Program != nil {
			t.Errorf("a program was reported: %+v", b)
		}
	}
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	scalar := wire.MustLayout(&wire.Schema{Name: "s", Fields: []wire.FieldSpec{{Name: "pt", Type: abi.Int, Count: 1}}}, &abi.X86)
	nested := wire.MustLayout(&wire.Schema{Name: "s", Fields: []wire.FieldSpec{{Name: "pt", Count: 1,
		Sub: &wire.Schema{Name: "s.pt", Fields: []wire.FieldSpec{{Name: "x", Type: abi.Int, Count: 1}}}}}}, &abi.X86)
	_, planErr := c.Plan(scalar, nested)
	if planErr == nil {
		t.Fatal("a structure on one side only was planned")
	}
	for i := 0; i < 2; i++ {
		if prog, err := c.Get(scalar, nested); prog != nil || err != planErr {
			t.Errorf("Get on an unplannable pair = %v, %v; want the plan error %v", prog, err, planErr)
		}
	}
	// No valid plan fails to compile, so break one behind the table's back.
	plan, err := c.Plan(wf, scalar)
	if err != nil {
		t.Fatal(err)
	}
	plan.Ops = append(plan.Ops, convert.Op{Kind: convert.OpKind(99)})
	_, compileErr := c.Get(wf, scalar)
	if compileErr == nil {
		t.Fatal("an unknown op kind compiled")
	}
	if prog, err := c.Get(wf, scalar); prog != nil || err != compileErr {
		t.Errorf("second Get = %v, %v; want the first compile error %v", prog, err, compileErr)
	}
	if again, err := c.Plan(wf, scalar); again != plan || err != nil {
		t.Errorf("Plan after a failed compile = %p, %v; want the filed plan %p", again, err, plan)
	}
}

// Sixteen goroutines racing a pair's first Get share one program, and the
// table reports one plan built and one program compiled.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	var plans, progs atomic.Int32
	c.OnBuild = func(b Build) {
		if b.Program == nil {
			plans.Add(1)
		} else {
			progs.Add(1)
		}
	}
	wf := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	nf := wire.MustLayout(mixedSchema(), &abi.X86)
	var wg sync.WaitGroup
	got := make([]*Program, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Get(wf, nf)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Get returned distinct programs")
		}
	}
	if plans.Load() != 1 || progs.Load() != 1 {
		t.Errorf("OnBuild saw %d plans and %d programs, want 1 and 1", plans.Load(), progs.Load())
	}
}

func TestDisassembleAndStrings(t *testing.T) {
	prog := compileFor(t, &abi.SparcV8, &abi.X86)
	asm := Disassemble(optimizedCode(t, prog))
	if !strings.Contains(asm, "swap") {
		t.Errorf("heterogeneous program has no swaps:\n%s", asm)
	}
	if fused := DisassembleBatch(prog.Ops()); !strings.Contains(fused, "swap") {
		t.Errorf("fused heterogeneous program has no swaps:\n%s", fused)
	}
	for _, in := range []Instr{
		{Op: IMovBlk, Len: 4}, {Op: ISwap, Width: 8, Count: 2},
		{Op: ICvtInt, SrcW: 4, DstW: 8, Signed: true}, {Op: ICvtFloat, SrcW: 4, DstW: 8},
		{Op: IZero, Len: 16}, {Op: OpCode(42)},
	} {
		if in.String() == "" {
			t.Errorf("empty String for %v", in.Op)
		}
	}
	if IMovBlk.String() != "movblk" || OpCode(42).String() == "" {
		t.Error("OpCode.String broken")
	}
}

func TestLowerRejectsBadInstr(t *testing.T) {
	if _, err := lower(&Instr{Op: OpCode(42)}); err == nil {
		t.Error("unknown opcode lowered")
	}
	bad := fuseSwap(&Instr{Op: ISwap, Width: 3, Count: 4})
	if _, err := lowerBatch(&bad, 16, 16); err == nil {
		t.Error("swap width 3 lowered")
	}
	if _, err := lower(&Instr{Op: ICvtFloat, SrcW: 4, DstW: 4}); err == nil {
		t.Error("float convert 4->4 lowered")
	}
}
