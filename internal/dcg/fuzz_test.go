package dcg

import (
	"math/rand"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/wire"
)

// FuzzConvertBatch is the differential fuzz target for the compiled
// conversion engine: for a fuzzer-chosen schema (optionally evolved on
// the sender's side, optionally with nested arrays long enough to
// compile to subroutine calls, optionally with the expected format's
// fields declared out of offset order), architecture pair, batch size
// and record payload, both entries of the compiled program must agree field for
// field with convert.Interp on the same wire bytes — ConvertBatch over n
// contiguous records, Convert over one, and Convert with dst and src the
// same buffer whenever the plan is in-place safe (checkAgainstInterp).
// The fuzzer also drives the stride contract: any source that is not a
// positive whole number of records (a trailing partial record, or empty
// input) must be rejected, and record images at arbitrary misaligned
// offsets within the batch must convert exactly like aligned ones.
func FuzzConvertBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(0), false, false, []byte("seed"))
	f.Add(int64(42), uint8(2), uint8(4), uint8(7), uint8(5), uint8(9), true, false, []byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(int64(20260808), uint8(1), uint8(3), uint8(64), uint8(1), uint8(3), true, true, []byte{})
	f.Add(int64(7), uint8(0), uint8(5), uint8(2), uint8(0), uint8(0), false, true, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, seed int64, fromIdx, toIdx, nRecs, chop, nest uint8, evolve, permute bool, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		schema := wire.RandomSchema(rng, "r", 6, 2)
		// RandomSchema keeps structure arrays at 1..4 elements, which
		// Emit inlines; stretch them so ICall bodies are fuzzed too.
		for i := range schema.Fields {
			if fs := &schema.Fields[i]; fs.Sub != nil {
				fs.Count = 1 + fs.Count*int(nest)%40
			}
		}
		wireSchema := schema
		if evolve {
			wireSchema = wire.MutateSchema(rng, schema)
		}
		from := abi.All[int(fromIdx)%len(abi.All)]
		to := abi.All[int(toIdx)%len(abi.All)]
		wf, err := wire.Layout(wireSchema, &from)
		if err != nil {
			t.Skip()
		}
		nf, err := wire.Layout(schema, &to)
		if err != nil {
			t.Skip()
		}
		if permute {
			nf = permuteFields(rng, nf)
		}
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			t.Skip()
		}
		prog, err := Compile(plan)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}

		n := batchSizes[int(nRecs)%len(batchSizes)]
		if n*wf.Size > 1<<20 {
			n = 7 // keep one execution cheap
		}
		src := make([]byte, n*wf.Size)
		for i := 0; i < len(src) && len(raw) > 0; i += len(raw) {
			copy(src[i:], raw)
		}
		checkAgainstInterp(t, prog, src)

		// Trailing partial input: chop 1..Size-1 bytes off the last record
		// and the batch must be rejected, never silently truncated.
		dst := make([]byte, n*nf.Size)
		if cut := int(chop) % wf.Size; cut > 0 {
			if _, err := prog.ConvertBatch(dst, src[:len(src)-cut]); err == nil {
				t.Fatalf("source with %d-byte trailing partial record accepted (stride %d)", wf.Size-cut, wf.Size)
			}
		}
		if _, err := prog.ConvertBatch(dst, nil); err == nil {
			t.Fatal("empty source accepted")
		}
	})
}
