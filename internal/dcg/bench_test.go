package dcg

import (
	"fmt"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

// benchSchema is a 10Kb-class mixed record.
func benchSchema() *wire.Schema {
	s := mixedSchema()
	s.Fields[len(s.Fields)-1].Count = 1245
	return s
}

func BenchmarkCompile(b *testing.B) {
	wf := wire.MustLayout(benchSchema(), &abi.SparcV8)
	nf := wire.MustLayout(benchSchema(), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// archPair is one (wire, native) architecture pair of a benchmark
// table; TestConvertBatchAllocs pins every pair the benchmarks time.
type archPair struct {
	name     string
	from, to abi.Arch
}

// convertPairs are BenchmarkConvertPairs' representative architecture
// pairs: swap-dominated, move-dominated, size-converting, and no-op.
var convertPairs = []archPair{
	{"swap/sparc-to-x86", abi.SparcV8, abi.X86},
	{"move-only/sparc-to-mips", abi.SparcV8, abi.MIPSo32}, // same order+layout: noop
	{"resize/sparcv9-64-to-x86", abi.SparcV9x64, abi.X86},
	{"swap+widen/x86-to-mips-n64", abi.X86, abi.MIPSn64},
	{"noop/x86-to-x86", abi.X86, abi.X86},
}

// batchRegimes and batchBenchSizes are BenchmarkConvertBatch's
// conversion matrix (same-layout bulk copy, swap-dominated, mixed
// move+swap) and batch sizes.
var (
	batchRegimes = []archPair{
		{"same-layout/x86-64-to-x86-64", abi.X86x64, abi.X86x64},
		{"swap-only/sparc-to-x86-64", abi.SparcV8, abi.X86x64},
		{"mixed/sparcv9-64-to-x86", abi.SparcV9x64, abi.X86},
	}
	batchBenchSizes = []int{1, 8, 64, 1024}
)

// BenchmarkConvertPairs measures the generated conversion across
// convertPairs.
func BenchmarkConvertPairs(b *testing.B) {
	for _, pr := range convertPairs {
		pr := pr
		b.Run(pr.name, func(b *testing.B) {
			wf := wire.MustLayout(benchSchema(), &pr.from)
			nf := wire.MustLayout(benchSchema(), &pr.to)
			plan, err := convert.NewPlan(wf, nf)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := Compile(plan)
			if err != nil {
				b.Fatal(err)
			}
			src := native.New(wf)
			native.FillDeterministic(src, 1)
			dst := native.New(nf)
			b.SetBytes(int64(nf.Size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prog.Convert(dst.Buf, src.Buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// batchBenchSchema is a ~100-byte record, the paper's small-message
// regime where per-record dispatch overhead dominates and batching has
// the most to amortize.
func batchBenchSchema() *wire.Schema {
	return &wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "values", Type: abi.Double, Count: 11},
		},
	}
}

// BenchmarkConvertBatch measures the compiled engine across
// batchRegimes and batchBenchSizes.  The loop advances b.N by the batch
// size, so ns/op reads directly as ns/record; perRecord (the Convert
// entry) and batch=1 (ConvertBatch on one record) are the same kernels
// and the dispatch-overhead baseline the larger batches amortize away.
func BenchmarkConvertBatch(b *testing.B) {
	for _, pr := range batchRegimes {
		pr := pr
		wf := wire.MustLayout(batchBenchSchema(), &pr.from)
		nf := wire.MustLayout(batchBenchSchema(), &pr.to)
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pr.name+"/perRecord", func(b *testing.B) {
			src := native.New(wf)
			native.FillDeterministic(src, 1)
			dst := native.New(nf)
			b.SetBytes(int64(nf.Size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prog.Convert(dst.Buf, src.Buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, n := range batchBenchSizes {
			n := n
			b.Run(fmt.Sprintf("%s/batch=%d", pr.name, n), func(b *testing.B) {
				src := fillBatch(wf, n)
				dst := make([]byte, n*nf.Size)
				b.SetBytes(int64(nf.Size))
				b.ResetTimer()
				for i := 0; i < b.N; i += n {
					if _, err := prog.ConvertBatch(dst, src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkConvertNested measures the subroutine-call path on an
// array-of-structures record.
func BenchmarkConvertNested(b *testing.B) {
	wf := wire.MustLayout(particleSchema(250), &abi.SparcV8)
	nf := wire.MustLayout(particleSchema(250), &abi.X86)
	plan, err := convert.NewPlan(wf, nf)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	src := native.New(wf)
	native.FillDeterministic(src, 1)
	dst := native.New(nf)
	b.SetBytes(int64(nf.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog.Convert(dst.Buf, src.Buf); err != nil {
			b.Fatal(err)
		}
	}
}
