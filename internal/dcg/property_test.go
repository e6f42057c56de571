package dcg

import (
	"math/rand"
	"testing"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/native"
	"repro/internal/wire"
)

// TestPropertyRandomSchemas is the repository's strongest correctness
// property: for hundreds of random schemas (including nested structures
// and arrays), random architecture pairs, and random type-extension
// mutations, the generated conversion program and the interpreter must
// produce identical field bytes — through both entries and in place
// where the plan allows (checkAgainstInterp) — and the conversion must
// preserve every matched field's value.
func TestPropertyRandomSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		schema := wire.RandomSchema(rng, "r", 8, 2)
		from := abi.All[rng.Intn(len(abi.All))]
		to := abi.All[rng.Intn(len(abi.All))]

		wireSchema := schema
		if rng.Intn(2) == 0 {
			// Evolved sender: the wire format differs structurally.
			wireSchema = wire.MutateSchema(rng, schema)
		}

		wf, err := wire.Layout(wireSchema, &from)
		if err != nil {
			t.Fatalf("iter %d: layout wire: %v", i, err)
		}
		nf, err := wire.Layout(schema, &to)
		if err != nil {
			t.Fatalf("iter %d: layout native: %v", i, err)
		}
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			t.Fatalf("iter %d: plan: %v", i, err)
		}
		prog, err := Compile(plan)
		if err != nil {
			t.Fatalf("iter %d: compile: %v", i, err)
		}

		src := native.New(wf)
		native.FillDeterministic(src, int64(i))

		// Field bytes against the interpreter, through both entries and
		// — in-place claims must be honored — the aliased one whenever
		// the plan says in-place is safe.
		checkAgainstInterp(t, prog, src.Buf)

		// Value preservation over the matched intersection.  Integer
		// narrowing may truncate values legitimately, so check only
		// fields whose destination is at least as wide as the source.
		got := native.New(nf)
		if err := prog.Convert(got.Buf, src.Buf); err != nil {
			t.Fatalf("iter %d: dcg: %v", i, err)
		}
		if diff := checkPreserved(src, got); diff != "" {
			t.Fatalf("iter %d: %s->%s: %s\nplan:\n%s", i, from.Name, to.Name, diff, plan)
		}
	}
}

// TestPropertyBatchAgainstInterp extends the random-schema property to
// batches: for random field layouts, random architecture pairs and batch
// sizes spanning one record to well past any word-fusion boundary, the
// compiled program must agree field-for-field with the interpreted
// converter run record by record (checkAgainstInterp).
func TestPropertyBatchAgainstInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	iters := 8 * len(batchSizes)
	if testing.Short() {
		iters = 2 * len(batchSizes)
	}
	for i := 0; i < iters; i++ {
		n := batchSizes[i%len(batchSizes)]
		schema := wire.RandomSchema(rng, "r", 8, 2)
		from := abi.All[rng.Intn(len(abi.All))]
		to := abi.All[rng.Intn(len(abi.All))]
		wireSchema := schema
		if rng.Intn(2) == 0 {
			wireSchema = wire.MutateSchema(rng, schema)
		}
		wf, err := wire.Layout(wireSchema, &from)
		if err != nil {
			t.Fatalf("iter %d: layout wire: %v", i, err)
		}
		nf, err := wire.Layout(schema, &to)
		if err != nil {
			t.Fatalf("iter %d: layout native: %v", i, err)
		}
		if rng.Intn(3) == 0 {
			nf = permuteFields(rng, nf) // ops out of offset order
		}
		plan, err := convert.NewPlan(wf, nf)
		if err != nil {
			t.Fatalf("iter %d: plan: %v", i, err)
		}
		prog, err := Compile(plan)
		if err != nil {
			t.Fatalf("iter %d: compile: %v", i, err)
		}
		src := make([]byte, n*wf.Size)
		for r := 0; r < n; r++ {
			rec := native.New(wf)
			native.FillDeterministic(rec, int64(i*1024+r))
			copy(src[r*wf.Size:], rec.Buf)
		}
		checkAgainstInterp(t, prog, src)
	}
}

// fieldBytesDiff compares two record images of the same format over the
// format's field byte ranges only, ignoring alignment padding (whose
// content is undefined).  It returns the name of the first differing
// field, or "".
func fieldBytesDiff(f *wire.Format, a, b []byte) string {
	flat := f.Flatten()
	for i := range flat.Fields {
		fl := &flat.Fields[i]
		if string(a[fl.Offset:fl.End()]) != string(b[fl.Offset:fl.End()]) {
			return fl.Name
		}
	}
	return ""
}

// checkPreserved compares matched fields whose conversion is lossless
// (destination element at least as wide as the source, same type class).
func checkPreserved(src, dst *native.Record) string {
	for i := range dst.Format.Fields {
		df := &dst.Format.Fields[i]
		sf := src.Format.FieldByName(df.Name)
		if sf == nil || sf.IsStruct() != df.IsStruct() {
			continue
		}
		n := min(sf.Count, df.Count)
		switch {
		case df.IsStruct():
			for e := 0; e < n; e++ {
				ssub, _ := src.Sub(df.Name, e)
				dsub, _ := dst.Sub(df.Name, e)
				if ssub == nil || dsub == nil {
					continue
				}
				if diff := checkPreserved(ssub, dsub); diff != "" {
					return df.Name + "." + diff
				}
			}
		case sf.Type == abi.Char && df.Type == abi.Char:
			// Compare the copied prefix.
			sb, _ := src.Bytes(df.Name)
			db, _ := dst.Bytes(df.Name)
			for e := 0; e < n; e++ {
				if sb[e] != db[e] {
					return df.Name + ": char bytes differ"
				}
			}
		case sf.Type.Floating() && df.Type.Floating() && df.Size >= sf.Size:
			for e := 0; e < n; e++ {
				sv, _ := src.Float(df.Name, e)
				dv, _ := dst.Float(df.Name, e)
				if sv != dv {
					return df.Name + ": float value lost"
				}
			}
		case sf.Type.Integer() && df.Type.Integer() && df.Size >= sf.Size && sf.Type.Signed() == df.Type.Signed():
			for e := 0; e < n; e++ {
				sv, _ := src.Int(df.Name, e)
				dv, _ := dst.Int(df.Name, e)
				if sv != dv {
					return df.Name + ": integer value lost"
				}
			}
		}
	}
	return ""
}
