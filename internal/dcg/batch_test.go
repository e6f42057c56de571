package dcg

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

// batchSizes are the record counts every differential check sweeps: the
// n=1 entry, sizes around the word- and block-fusion boundaries, and one
// well past any of them.
var batchSizes = []int{1, 2, 7, 64, 1024}

// fillBatch builds n contiguous wire records with distinct deterministic
// contents.
func fillBatch(wf *wire.Format, n int) []byte {
	src := make([]byte, n*wf.Size)
	for i := 0; i < n; i++ {
		r := native.New(wf)
		native.FillDeterministic(r, int64(i+1))
		copy(src[i*wf.Size:], r.Buf)
	}
	return src
}

// permuteFields returns f with its fields, and those of every nested
// format, declared in an rng-chosen order at unchanged offsets.  wire.Layout never produces such a format
// but Validate admits it (only overlap is forbidden), and a plan follows
// the expected format's declaration order — so this is what makes a
// program's ops run out of offset order.
func permuteFields(rng *rand.Rand, f *wire.Format) *wire.Format {
	g := &wire.Format{Name: f.Name, Arch: f.Arch, Order: f.Order, Size: f.Size,
		Fields: append([]wire.Field(nil), f.Fields...)}
	rng.Shuffle(len(g.Fields), func(i, j int) { g.Fields[i], g.Fields[j] = g.Fields[j], g.Fields[i] })
	for i := range g.Fields {
		if fl := &g.Fields[i]; fl.IsStruct() {
			fl.Sub = permuteFields(rng, fl.Sub)
		}
	}
	return g
}

// checkAgainstInterp is the differential oracle shared by the table
// test, the property test and the fuzz target: the compiled program run
// over the whole-record batch in src must agree with convert.Interp run
// record by record on the same wire bytes.  It compares field bytes —
// padding content is undefined: gap fusion and shuffle identity lanes
// may put source bytes there, the interpreter leaves it untouched.  The
// first record also goes through the n=1 entry (Convert), and through it
// again with dst and src the same buffer whenever the plan says that is
// safe.
func checkAgainstInterp(t *testing.T, prog *Program, src []byte) {
	t.Helper()
	plan := prog.Plan()
	ws, ns := plan.Wire.Size, plan.Native.Size
	n := len(src) / ws
	fail := func(what string, rec int, field string) {
		t.Helper()
		t.Fatalf("%s -> %s: %s and interp disagree on record %d/%d field %s\nplan:\n%s\ncode:\n%s",
			plan.Wire.Arch, plan.Native.Arch, what, rec, n, field, plan, DisassembleBatch(prog.Ops()))
	}

	it := convert.NewInterp(plan)
	want := make([]byte, n*ns)
	for i := 0; i < n; i++ {
		if err := it.Convert(want[i*ns:(i+1)*ns], src[i*ws:(i+1)*ws]); err != nil {
			t.Fatalf("record %d: interp: %v", i, err)
		}
	}
	got := make([]byte, n*ns)
	cnt, err := prog.ConvertBatch(got, src)
	if err != nil {
		t.Fatalf("n=%d: ConvertBatch: %v", n, err)
	}
	if cnt != n {
		t.Fatalf("ConvertBatch converted %d of %d records", cnt, n)
	}
	for i := 0; i < n; i++ {
		if diff := fieldBytesDiff(plan.Native, got[i*ns:(i+1)*ns], want[i*ns:(i+1)*ns]); diff != "" {
			fail("ConvertBatch", i, diff)
		}
	}

	one := make([]byte, ns)
	if err := prog.Convert(one, src[:ws]); err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if diff := fieldBytesDiff(plan.Native, one, want[:ns]); diff != "" {
		fail("Convert", 0, diff)
	}
	if plan.InPlace {
		shared := make([]byte, max(ws, ns))
		copy(shared, src[:ws])
		if err := prog.Convert(shared[:ns], shared[:ws]); err != nil {
			t.Fatalf("in-place Convert: %v", err)
		}
		if diff := fieldBytesDiff(plan.Native, shared, want[:ns]); diff != "" {
			fail("in-place Convert", 0, diff)
		}
	}
}

// TestConvertBatchMatchesPerRecord is the core contract: both entries of
// the compiled program — ConvertBatch over n records and Convert over
// one, aliased where the plan allows — agree with the interpreter run
// per record, across swap-heavy, move-only, resizing, no-op and nested
// subroutine-call pairs.  Each pair is then run again with the fields of
// both formats declared out of offset order, which is what once put
// overlapping shuffle regions in a program and let gap fusion copy over
// a field already converted.
func TestConvertBatchMatchesPerRecord(t *testing.T) {
	doubles := &wire.Schema{Name: "d8"}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		doubles.Fields = append(doubles.Fields, wire.FieldSpec{Name: name, Type: abi.Double, Count: 1})
	}
	pairs := []struct {
		name     string
		schema   *wire.Schema
		from, to abi.Arch
	}{
		{"swap/sparc-to-x86", mixedSchema(), abi.SparcV8, abi.X86},
		{"swap8-only/sparc-to-x86-64", doubles, abi.SparcV8, abi.X86x64},
		{"move-only/sparc-to-mips", mixedSchema(), abi.SparcV8, abi.MIPSo32},
		{"resize/sparcv9-64-to-x86", mixedSchema(), abi.SparcV9x64, abi.X86},
		{"swap+widen/x86-to-mips-n64", mixedSchema(), abi.X86, abi.MIPSn64},
		{"noop/x86-to-x86", mixedSchema(), abi.X86, abi.X86},
		{"nested-call/sparc-to-x86-64", particleSchema(100), abi.SparcV8, abi.X86x64},
		{"nested-call/sparcv9-64-to-x86", particleSchema(100), abi.SparcV9x64, abi.X86},
	}
	for _, pr := range pairs {
		t.Run(pr.name, func(t *testing.T) {
			wf, nf := wire.MustLayout(pr.schema, &pr.from), wire.MustLayout(pr.schema, &pr.to)
			prog := compileFormats(t, wf, nf)
			for _, n := range batchSizes {
				checkAgainstInterp(t, prog, fillBatch(wf, n))
			}
			withoutShuffle(t, func() {
				checkAgainstInterp(t, compileFormats(t, wf, nf), fillBatch(wf, 7))
			})
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < 16; i++ {
				wf, nf := permuteFields(rng, wf), permuteFields(rng, nf)
				for _, n := range []int{1, 7} {
					checkAgainstInterp(t, compileFormats(t, wf, nf), fillBatch(wf, n))
				}
			}
		})
	}
}

// TestShuffleRegionsDisjoint states the invariant that lets every
// shuffle run ahead of the plan-ordered ops: regions ascend and no byte
// belongs to two of them, whatever order the ops come in.
func TestShuffleRegionsDisjoint(t *testing.T) {
	if !shufAvailable() {
		t.Skip("no SIMD shuffle unit on this CPU")
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		// Short in-place swaps and moves on a 256-byte record, shuffled.
		var code []Instr
		for off := 0; off < 256; {
			w := []int{2, 4, 8}[rng.Intn(3)]
			cnt := 1 + rng.Intn(3)
			off = (off + w - 1) &^ (w - 1)
			if off+w*cnt > 256 {
				break
			}
			if rng.Intn(4) == 0 {
				code = append(code, Instr{Op: IMovBlk, Dst: off, Src: off, Len: w * cnt})
			} else {
				code = append(code, Instr{Op: ISwap, Dst: off, Src: off, Width: w, Count: cnt})
			}
			off += w*cnt + 8*rng.Intn(4)
		}
		rng.Shuffle(len(code), func(i, j int) { code[i], code[j] = code[j], code[i] })
		shufs, _ := buildShuffles(code, 256)
		end := 0
		for _, op := range shufs {
			if op.In.Dst < end {
				t.Fatalf("region at +%d starts inside the previous one (ends +%d):\n%s\nfrom:\n%s",
					op.In.Dst, end, DisassembleBatch(shufs), Disassemble(code))
			}
			end = op.In.Dst + len(op.Masks)
		}
	}
}

// TestConvertBatchRejectsPartialInput pins the stride contract: a source
// that is empty or not a whole number of records is an error, matching
// the transport's batch-frame validation.
func TestConvertBatchRejectsPartialInput(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := bp.Plan().Wire, bp.Plan().Native
	dst := make([]byte, 4*nf.Size)
	for _, bad := range []int{0, 1, wf.Size - 1, wf.Size + 1, 3*wf.Size - 7} {
		if _, err := bp.ConvertBatch(dst, make([]byte, bad)); err == nil {
			t.Errorf("source of %d bytes (stride %d): want error, got nil", bad, wf.Size)
		}
	}
	// A destination short of n records must be rejected before any kernel
	// touches it.
	if _, err := bp.ConvertBatch(make([]byte, 2*nf.Size-1), fillBatch(wf, 2)); err == nil {
		t.Error("short destination accepted")
	}
}

// TestCompileBatchBulkCopy pins the move-only specialization: a
// layout-identical pair compiles to a single whole-batch copy.
func TestCompileBatchBulkCopy(t *testing.T) {
	bp := compileFor(t, &abi.X86, &abi.X86)
	ops := bp.Ops()
	if len(ops) != 1 || ops[0].Kind != BBulkCopy {
		t.Fatalf("noop pair compiled to %d ops:\n%s", len(ops), DisassembleBatch(ops))
	}
	wf := bp.Plan().Wire
	src := fillBatch(wf, 5)
	dst := make([]byte, len(src))
	if _, err := bp.ConvertBatch(dst, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("bulk copy did not reproduce the batch")
	}
}

// TestFuseBatchWidens pins the word-fusion shapes: a big-endian sender's
// contiguous double run becomes width-8 words, 4-byte and 2-byte runs
// fuse two and four elements per word with the trailing remainder swapped
// singly.
func TestFuseBatchWidens(t *testing.T) {
	cases := []struct {
		width, count int
		kind         BatchOpKind
		words, rem   int
	}{
		{8, 3, BSwapWide, 3, 0},
		{4, 1, BSwap, 0, 0},
		{4, 2, BSwapWide, 1, 0},
		{4, 7, BSwapWide, 3, 1},
		{2, 3, BSwap, 0, 0},
		{2, 4, BSwapWide, 1, 0},
		{2, 11, BSwapWide, 2, 3},
	}
	for _, c := range cases {
		op := fuseSwap(&Instr{Op: ISwap, Width: c.width, Count: c.count})
		if op.Kind != c.kind || op.Words != c.words || op.Rem != c.rem {
			t.Errorf("swap%d x%d: fused to %v words=%d rem=%d, want %v words=%d rem=%d",
				c.width, c.count, op.Kind, op.Words, op.Rem, c.kind, c.words, c.rem)
		}
	}
	// Width-1 swaps degenerate to moves.
	if op := fuseSwap(&Instr{Op: ISwap, Width: 1, Count: 5}); op.Kind != BMove || op.In.Len != 5 {
		t.Errorf("swap1 x5 fused to %v len=%d, want move len=5", op.Kind, op.In.Len)
	}
}

// TestBatchStats sanity-checks the shape counters the flight journal
// reports: a swap-heavy pair must fuse words, and nested records must
// fall back to per-record steps.
func TestBatchStats(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	runs, words, steps := bp.Stats()
	if runs == 0 || words == 0 {
		t.Errorf("swap pair: runs=%d fusedWords=%d, want both > 0\n%s",
			runs, words, DisassembleBatch(bp.Ops()))
	}
	if steps != 0 {
		t.Errorf("mixed flat schema should need no step fallbacks, got %d:\n%s",
			steps, DisassembleBatch(bp.Ops()))
	}

	nested := compileSchemas(t, particleSchema(250), &abi.SparcV8, particleSchema(250), &abi.X86)
	if _, _, steps := nested.Stats(); steps == 0 {
		t.Errorf("nested array-of-structures should use step fallbacks:\n%s",
			DisassembleBatch(nested.Ops()))
	}
	if !strings.Contains(DisassembleBatch(nested.Ops()), "step") {
		t.Error("disassembly of nested batch program lacks a step op")
	}
}

// TestSwapBlockMatchesScalar pins the SIMD shuffle against a scalar
// reference for every width and a range of run lengths, including ones
// below the 16-byte block size (where swapBlock must decline) and ones
// with scalar tails.
func TestSwapBlockMatchesScalar(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		for _, elems := range []int{1, 2, 3, 7, 8, 11, 16, 33} {
			ln := width * elems
			src := make([]byte, ln)
			for i := range src {
				src[i] = byte(i*37 + width)
			}
			want := make([]byte, ln)
			for e := 0; e < elems; e++ {
				for b := 0; b < width; b++ {
					want[e*width+b] = src[e*width+width-1-b]
				}
			}
			got := make([]byte, ln)
			done := swapBlock(width, got, src)
			if done%16 != 0 || done > ln {
				t.Fatalf("width %d × %d: swapBlock handled %d bytes", width, elems, done)
			}
			for e := done / width; e < elems; e++ { // scalar reference for the tail
				for b := 0; b < width; b++ {
					got[e*width+b] = src[e*width+width-1-b]
				}
			}
			if !bytes.Equal(got, want) {
				t.Errorf("width %d × %d: shuffle output differs from scalar reference (SIMD covered %d bytes)", width, elems, done)
			}
		}
	}
}

// TestCompileBatchRecordShuffle pins the whole-record permutation form
// on machines with the SIMD shuffle unit: a short all-swap heterogeneous
// record compiles to a single BShuf op whose masks reverse each field's
// lanes and pass the alignment gap through, while a run longer than
// shufMaxRun stays out of the mask table, so compile cost follows the op
// count, not the record size.  (Output equivalence is covered by
// TestConvertBatchMatchesPerRecord and the differential fuzz target.)
func TestCompileBatchRecordShuffle(t *testing.T) {
	if !shufAvailable() {
		t.Skip("no SIMD shuffle unit on this CPU")
	}
	schema := &wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "values", Type: abi.Double, Count: 11},
		},
	}
	bp := compileSchemas(t, schema, &abi.SparcV8, schema, &abi.X86x64)
	ops := bp.Ops()
	if len(ops) != 1 || ops[0].Kind != BShuf {
		t.Fatalf("all-swap record should compile to one shuffle, got:\n%s",
			DisassembleBatch(ops))
	}
	masks := ops[0].Masks
	if size := bp.Plan().Native.Size; len(masks) != size {
		t.Fatalf("shuffle covers %d of %d record bytes", len(masks), size)
	}
	// First block: seq is a 4-byte reversal, the alignment gap before
	// the doubles identity lanes, the first double an 8-byte reversal.
	want := []byte{3, 2, 1, 0, 4, 5, 6, 7, 15, 14, 13, 12, 11, 10, 9, 8}
	if !bytes.Equal(masks[:16], want) {
		t.Fatalf("first mask block = % x, want % x", masks[:16], want)
	}

	// The same record with a 100 KB values array: the long run keeps its
	// own block-swap kernel and no mask table is built for it.
	schema.Fields[1].Count = 12500
	long := compileSchemas(t, schema, &abi.SparcV8, schema, &abi.X86x64)
	for _, op := range long.Ops() {
		if len(op.Masks) > shufMaxRun+32 {
			t.Fatalf("%d-byte mask table for a long swap run:\n%s", len(op.Masks), DisassembleBatch(long.Ops()))
		}
	}
}

// TestConvertBatchAllocs pins the engine itself at zero allocations per
// call (the pbio-level pins cover the full decode paths).
func TestConvertBatchAllocs(t *testing.T) {
	bp := compileFor(t, &abi.SparcV8, &abi.X86)
	wf, nf := bp.Plan().Wire, bp.Plan().Native
	src := fillBatch(wf, 64)
	dst := make([]byte, 64*nf.Size)
	got := testing.AllocsPerRun(100, func() {
		if _, err := bp.ConvertBatch(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("ConvertBatch allocates %.1f per batch, want 0", got)
	}
}
