package bench

// Ablation benchmarks for the design choices DESIGN.md calls out.  Run
// with: go test -bench=Ablation -benchmem ./internal/bench/

import (
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/native"
	"repro/internal/wire"
)

// ablationSize is the 10Kb workload: large enough that per-element costs
// dominate, small enough to iterate quickly.
var ablationSize = Size{Label: "10Kb", Target: 10000, N: 1245}

// BenchmarkAblation_InterpVsDCG isolates the Figure 4 gap: the same plan
// executed by the table-driven interpreter vs the generated program.
func BenchmarkAblation_InterpVsDCG(b *testing.B) {
	p := MustPair(ablationSize, MixedSchema)
	plan, err := convert.NewPlan(p.X86Fmt, p.SparcFmt)
	if err != nil {
		b.Fatal(err)
	}
	src := p.X86Rec.Buf
	dst := make([]byte, p.SparcFmt.Size)

	b.Run("interpreted", func(b *testing.B) {
		it := convert.NewInterp(plan)
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if err := it.Convert(dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generated", func(b *testing.B) {
		prog, err := dcg.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(src)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := prog.Convert(dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_Coalescing measures the peephole optimizer's copy-span
// fusion on the homogeneous shifted-layout conversion (Figure 7's
// mismatch case), where fusion collapses one move per field into one move
// per record.
func BenchmarkAblation_Coalescing(b *testing.B) {
	wireFmt := wire.MustLayout(ExtendedMixedSchema(ablationSize.N), &abi.X86)
	natFmt := wire.MustLayout(MixedSchema(ablationSize.N), &abi.X86)
	plan, err := convert.NewPlan(wireFmt, natFmt)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]byte, wireFmt.Size)
	dst := make([]byte, natFmt.Size)

	for _, c := range []struct {
		name    string
		compile func(*convert.Plan) (*dcg.Program, error)
	}{
		{"fused", dcg.Compile},
		{"unfused", dcg.CompileUnoptimized},
	} {
		prog, err := c.compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(natFmt.Size))
			b.ReportMetric(float64(len(prog.Ops())), "ops")
			for i := 0; i < b.N; i++ {
				if err := prog.Convert(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_BufferReuse contrasts converting in the receive
// buffer (PBIO) with converting into a separate user buffer (MPICH's
// behaviour, which the paper calls out in §4.3).
func BenchmarkAblation_BufferReuse(b *testing.B) {
	wireFmt := wire.MustLayout(ExtendedMixedSchema(ablationSize.N), &abi.X86)
	natFmt := wire.MustLayout(MixedSchema(ablationSize.N), &abi.X86)
	plan, err := convert.NewPlan(wireFmt, natFmt)
	if err != nil {
		b.Fatal(err)
	}
	if !plan.InPlace {
		b.Fatal("expected in-place-safe plan")
	}
	prog, err := dcg.Compile(plan)
	if err != nil {
		b.Fatal(err)
	}
	recvBuf := make([]byte, wireFmt.Size)
	userBuf := make([]byte, natFmt.Size)

	b.Run("reuse-receive-buffer", func(b *testing.B) {
		b.SetBytes(int64(natFmt.Size))
		for i := 0; i < b.N; i++ {
			if err := prog.Convert(recvBuf, recvBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("separate-buffer", func(b *testing.B) {
		b.SetBytes(int64(natFmt.Size))
		for i := 0; i < b.N; i++ {
			if err := prog.Convert(userBuf, recvBuf); err != nil {
				b.Fatal(err)
			}
			// The application still reads from its own buffer; the extra
			// cost is the second buffer's cache traffic, already counted.
		}
	})
}

// BenchmarkAblation_PlanCache compares the amortized path (plan computed
// once per wire format) against re-matching fields by name on every
// record — the cost PBIO's per-format caching avoids.
func BenchmarkAblation_PlanCache(b *testing.B) {
	p := MustPair(ablationSize, MixedSchema)
	src := p.X86Rec.Buf
	dst := make([]byte, p.SparcFmt.Size)

	b.Run("cached-plan", func(b *testing.B) {
		plan, err := convert.NewPlan(p.X86Fmt, p.SparcFmt)
		if err != nil {
			b.Fatal(err)
		}
		it := convert.NewInterp(plan)
		b.SetBytes(int64(len(src)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := it.Convert(dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replan-per-record", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			plan, err := convert.NewPlan(p.X86Fmt, p.SparcFmt)
			if err != nil {
				b.Fatal(err)
			}
			if err := convert.NewInterp(plan).Convert(dst, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_GenerationCost measures the one-time cost of
// generating a conversion program (plan + emit + optimize + lower), the
// quantity the paper amortizes: divide by the per-record saving from
// BenchmarkAblation_InterpVsDCG to get the break-even record count.
func BenchmarkAblation_GenerationCost(b *testing.B) {
	p := MustPair(ablationSize, MixedSchema)
	b.Run("plan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := convert.NewPlan(p.X86Fmt, p.SparcFmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan-and-compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan, err := convert.NewPlan(p.X86Fmt, p.SparcFmt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dcg.Compile(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_ExtensionPosition compares the paper's worst case
// (unexpected field FIRST, every expected offset shifts) with its §4.4
// recommendation (field appended, offsets unchanged) on a homogeneous
// receive.
func BenchmarkAblation_ExtensionPosition(b *testing.B) {
	natFmt := wire.MustLayout(MixedSchema(ablationSize.N), &abi.X86)
	for _, c := range []struct {
		name   string
		schema func(int) *wire.Schema
	}{
		{"prepended-worst-case", ExtendedMixedSchema},
		{"appended-recommended", AppendedMixedSchema},
	} {
		wireFmt := wire.MustLayout(c.schema(ablationSize.N), &abi.X86)
		plan, err := convert.NewPlan(wireFmt, natFmt)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := dcg.Compile(plan)
		if err != nil {
			b.Fatal(err)
		}
		if !plan.InPlace {
			b.Fatalf("%s: expected in-place-safe plan", c.name)
		}
		rec := native.New(wireFmt)
		native.FillDeterministic(rec, 1)
		b.Run(c.name, func(b *testing.B) {
			// In the receive buffer, as PBIO runs: with appended
			// fields every expected offset is unchanged, so the whole
			// conversion degenerates to an identity no-op.
			b.SetBytes(int64(natFmt.Size))
			b.ReportMetric(float64(len(prog.Ops())), "ops")
			for i := 0; i < b.N; i++ {
				if err := prog.Convert(rec.Buf, rec.Buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
