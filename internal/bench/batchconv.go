package bench

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/native"
	"repro/internal/wire"
)

// batchConvSizes are the batch sizes the fused-decode table sweeps;
// batch=1 is one record per call, the per-record dispatch cost the
// larger batches amortize.
var batchConvSizes = []int{1, 8, 64, 512}

// batchConvSchema is the ~100-byte record of the batch experiments.
// The mixed variant replaces most of the numeric payload with a char
// array, so conversion is a bulk move plus a few swaps instead of a
// solid swap run.
func batchConvSchema(mixed bool) *wire.Schema {
	if mixed {
		return &wire.Schema{
			Name: "tick",
			Fields: []wire.FieldSpec{
				{Name: "seq", Type: abi.Int, Count: 1},
				{Name: "tag", Type: abi.Char, Count: 64},
				{Name: "ts", Type: abi.Double, Count: 1},
				{Name: "values", Type: abi.Double, Count: 3},
			},
		}
	}
	return &wire.Schema{
		Name: "tick",
		Fields: []wire.FieldSpec{
			{Name: "seq", Type: abi.Int, Count: 1},
			{Name: "values", Type: abi.Double, Count: 11},
		},
	}
}

// BatchConv measures receiver-side conversion in ns/record across the
// ABI conversion matrix — same-layout (bulk copy), swap-only, and mixed
// move+swap — for the compiled program at increasing batch sizes.  Pure
// conversion cost: no framing, transport or record handoff, so the
// numbers isolate what sweeping each kernel over a whole batch buys over
// dispatching the kernel list once per record.
func BatchConv() *Table {
	header := []string{"regime", "bytes"}
	for _, n := range batchConvSizes {
		header = append(header, fmt.Sprintf("batch=%d", n))
	}
	t := &Table{
		Title:  "DCG: compiled conversion, ns/record vs batch size",
		Note:   "~100 B records; one Program.ConvertBatch call per batch, batch=1 is the per-record cost",
		Header: header,
	}
	regimes := []struct {
		name     string
		from, to abi.Arch
		mixed    bool
	}{
		{"same-layout", abi.X86x64, abi.X86x64, false},
		{"swap-only", abi.SparcV8, abi.X86x64, false},
		{"mixed move+swap", abi.SparcV8, abi.X86x64, true},
	}
	for _, rg := range regimes {
		schema := batchConvSchema(rg.mixed)
		wf := wire.MustLayout(schema, &rg.from)
		nf := wire.MustLayout(schema, &rg.to)
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			panic(err)
		}
		prog, err := dcg.Compile(plan)
		if err != nil {
			panic(err)
		}

		row := []string{rg.name, fmt.Sprint(wf.Size)}
		for _, n := range batchConvSizes {
			bsrc := make([]byte, n*wf.Size)
			for i := 0; i < n; i++ {
				rec := native.New(wf)
				native.FillDeterministic(rec, int64(i))
				copy(bsrc[i*wf.Size:], rec.Buf)
			}
			bdst := make([]byte, n*nf.Size)
			d := Measure(func() {
				if _, err := prog.ConvertBatch(bdst, bsrc); err != nil {
					panic(err)
				}
			})
			row = append(row, fmtNanos(float64(d)/float64(n)))
		}
		t.AddRow(row...)
	}
	return t
}

// fmtNanos renders a per-record time (in nanoseconds) for the table.
func fmtNanos(ns float64) string {
	return fmt.Sprintf("%.1fns", ns)
}
