package bench

// Shape tests: the structural half of the paper's qualitative findings —
// which system does more work by construction.  They compare layouts,
// plans, programs, byte counts and allocations, never a measured time:
// the timing half of every ordering is a row of Claims, which wireperf
// checks and exits non-zero on.

import (
	"testing"

	"repro/internal/convert"
	"repro/internal/transport"
)

// fixtureAt returns the ops at the paper size with the given label.
func fixtureAt(t *testing.T, label string) *Ops {
	t.Helper()
	for _, s := range Sizes() {
		if s.Label == label {
			return MustOps(MustPair(s, MixedSchema))
		}
	}
	t.Fatalf("no size %q", label)
	return nil
}

// aliasSink is a discarding writer that notes whether any slice written
// to it was rec itself, not a copy.
type aliasSink struct {
	rec     []byte
	aliased bool
}

func (s *aliasSink) Write(p []byte) (int, error) {
	if len(p) == len(s.rec) && len(p) > 0 && &p[0] == &s.rec[0] {
		s.aliased = true
	}
	return len(p), nil
}

// TestShapePBIOEncodeFlat is Figure 2's structure: PBIO's sender hands
// the transport the record's own memory and allocates nothing, at every
// size, so no per-byte encode work exists to grow with the record.
func TestShapePBIOEncodeFlat(t *testing.T) {
	for _, s := range Sizes() {
		o := MustOps(MustPair(s, MixedSchema))
		sink := &aliasSink{rec: o.Pair.SparcRec.Buf}
		o.pbioWriter = transport.NewWriter(sink)
		encode := o.PBIOEncode()
		encode() // the meta frame goes out with the first record
		sink.aliased = false
		if n := testing.AllocsPerRun(100, encode); n != 0 {
			t.Errorf("%s: PBIO encode allocates %v per record, want 0", s.Label, n)
		}
		if !sink.aliased {
			t.Errorf("%s: PBIO encode wrote no slice aliasing the record; it copied", s.Label)
		}
	}
}

// TestShapeSenderOrdering is Figure 2's ordering at 100Kb by
// construction: every baseline writes an image of its own holding at
// least the record's values (MPICH and CORBA copy them, XML spells them
// out as text and writes the most), while PBIO writes none
// (TestShapePBIOEncodeFlat).
func TestShapeSenderOrdering(t *testing.T) {
	o := fixtureAt(t, "100Kb")
	values := 8 * o.Pair.Size.N
	for name, n := range map[string]int{
		"MPICH XDR": o.MPIPackedSize(), "CORBA CDR": o.CDRWireSize(), "XML": o.XMLWireSize(),
	} {
		if n < values {
			t.Errorf("%s image %d bytes, below the record's %d value bytes", name, n, values)
		}
	}
	if o.XMLWireSize() <= o.MPIPackedSize() || o.XMLWireSize() <= o.CDRWireSize() {
		t.Errorf("XML image %d bytes not above MPICH's %d and CORBA's %d",
			o.XMLWireSize(), o.MPIPackedSize(), o.CDRWireSize())
	}
}

// TestShapeReceiverOrdering is Figures 3 and 4 at 100Kb by construction:
// XML parses a larger image than MPICH unpacks, and the generated
// program runs the interpreter's plan fused — no more kernels than the
// plan has ops, with the bulk array swapped a word or block at a time.
func TestShapeReceiverOrdering(t *testing.T) {
	o := fixtureAt(t, "100Kb")
	if o.XMLWireSize() <= o.MPIPackedSize() {
		t.Errorf("XML image %d bytes not above the XDR image %d", o.XMLWireSize(), o.MPIPackedSize())
	}
	plan := o.progS.Plan()
	if plan.NoOp || len(plan.Ops) == 0 {
		t.Fatal("heterogeneous plan is a no-op")
	}
	runs, fusedWords, _ := o.progS.Stats()
	if runs > len(plan.Ops) {
		t.Errorf("program has %d kernels for a %d-op plan", runs, len(plan.Ops))
	}
	if fusedWords == 0 {
		t.Error("no swap run fused into word or block operations")
	}
}

// TestShapeHomogeneousMatchedNearZero is Figure 7's structure: at every
// size the matched homogeneous plan has no ops (the record is used in
// the receive buffer), while an unexpected leading field makes the
// homogeneous receive relocate fields.
func TestShapeHomogeneousMatchedNearZero(t *testing.T) {
	for _, s := range Sizes() {
		o := MustOps(MustPair(s, MixedSchema))
		if p := o.sparcSame.Plan(); !p.NoOp || len(p.Ops) != 0 {
			t.Errorf("%s: matched homogeneous plan has %d ops (no-op %v), want none", s.Label, len(p.Ops), p.NoOp)
		}
		if p := NewHeteroExt(s).homoProg.Plan(); p.NoOp || len(p.Ops) == 0 {
			t.Errorf("%s: mismatched homogeneous plan has no ops", s.Label)
		}
	}
}

// TestShapeExtensionFreeHeterogeneous is Figure 6's structure: an
// unexpected leading field leaves the heterogeneous plan op for op what
// it was — same kinds, destinations and counts, sources shifted — and
// the compiled program the same length, because conversion already
// relocates every field.
func TestShapeExtensionFreeHeterogeneous(t *testing.T) {
	s := Sizes()[3]
	matched := MustOps(MustPair(s, MixedSchema)).progS
	mism := NewHeteroExt(s).heteroProg
	mp, xp := matched.Plan(), mism.Plan()
	if xp.Ignored != 1 {
		t.Errorf("mismatched plan ignores %d wire fields, want 1", xp.Ignored)
	}
	if len(xp.Ops) != len(mp.Ops) {
		t.Fatalf("mismatched plan has %d ops, matched %d", len(xp.Ops), len(mp.Ops))
	}
	for i := range mp.Ops {
		if !sameWork(mp.Ops[i], xp.Ops[i]) {
			t.Errorf("op %d: matched %+v, mismatched %+v", i, mp.Ops[i], xp.Ops[i])
		}
	}
	if len(mism.Ops()) != len(matched.Ops()) {
		t.Errorf("mismatched program has %d kernels, matched %d", len(mism.Ops()), len(matched.Ops()))
	}
}

// sameWork reports whether two plan ops do the same work, wherever in
// the wire record their source is.
func sameWork(a, b convert.Op) bool {
	a.SrcOff, b.SrcOff = 0, 0
	return a.Sub == nil && b.Sub == nil && a == b
}

func TestShapeXMLWireExpansion(t *testing.T) {
	// XML documents must be substantially larger than the binary record.
	o := fixtureAt(t, "10Kb")
	if o.XMLWireSize() < o.Pair.X86Fmt.Size*3/2 {
		t.Errorf("XML wire size %d not substantially above binary %d",
			o.XMLWireSize(), o.Pair.X86Fmt.Size)
	}
	// And PBIO's wire size is the native record plus a constant header.
	if o.PBIOWireSize()-o.Pair.SparcFmt.Size > 64 {
		t.Errorf("PBIO wire overhead %d bytes; should be a small constant",
			o.PBIOWireSize()-o.Pair.SparcFmt.Size)
	}
}
