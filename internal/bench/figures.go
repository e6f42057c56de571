package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
)

// Figure runners.  Each regenerates one figure of the paper's evaluation
// as a Table; Claims computes the headline ratios of §1/§5.

// net is the link model used for roundtrip composition, calibrated to the
// network legs the paper reports.
var linkModel netsim.Network = netsim.PaperEthernet

// allOps builds fixtures for every paper size.
func allOps() []*Ops {
	sizes := Sizes()
	ops := make([]*Ops, len(sizes))
	for i, s := range sizes {
		ops[i] = MustOps(MustPair(s, MixedSchema))
	}
	return ops
}

// CalibrateCPUs builds era-machine models for the paper's two hosts,
// anchored on a single measurement each: the 100 Kb MPICH encode leg,
// which Figure 1 reports as 13.31 ms on the Sun Ultra 30 and 8.95 ms on
// the Pentium II.  Every other scaled leg is then a *prediction* of the
// model, not a fit — EXPERIMENTS.md compares those predictions against
// the paper's remaining measurements.  A figure passes the legs it has
// just measured, so the scale is anchored on the very measurements it
// reports (no run-to-run drift between calibration and measurement).
func CalibrateCPUs(encSparc100k, encX86100k time.Duration) (sparc, x86 netsim.CPU) {
	sparc = netsim.CPU{Name: "ultra30-247MHz", Scale: float64(13310*time.Microsecond) / float64(encSparc100k)}
	x86 = netsim.CPU{Name: "pii-450MHz", Scale: float64(8950*time.Microsecond) / float64(encX86100k)}
	return sparc, x86
}

// Fig1 regenerates Figure 1: the cost breakdown of an MPICH message
// roundtrip between the sparc and x86 hosts, per message size.
func Fig1() *Table {
	t := &Table{
		Title: "Figure 1: MPICH roundtrip cost breakdown (sparc <-> x86, XDR wire format)",
		Note: "CPU legs measured on host, scaled to the paper's machines (one anchor " +
			"measurement each); network legs modelled on the paper's 100 Mbps Ethernet",
		Header: []string{"size", "sparc enc", "net", "x86 dec", "x86 enc", "net", "sparc dec", "total", "enc+dec %"},
	}
	ops := allOps()
	// Measure every leg first, then anchor the CPU scale on the 100 Kb
	// encode legs just measured.
	type legs struct{ encS, decX, encX, decS time.Duration }
	measured := make([]legs, len(ops))
	for i, o := range ops {
		measured[i] = legs{
			encS: Measure(o.MPIEncode()),
			decX: Measure(o.MPIDecodeX86()),
			encX: Measure(o.MPIEncodeX86()),
			decS: Measure(o.MPIDecode()),
		}
	}
	big := measured[len(measured)-1]
	cpuS, cpuX := CalibrateCPUs(big.encS, big.encX)
	for i, o := range ops {
		m := measured[i]
		n := o.MPIPackedSize()
		rt := netsim.NewRoundTrip(linkModel,
			cpuS.Time(m.encS), cpuX.Time(m.decX), cpuX.Time(m.encX), cpuS.Time(m.decS), n, n)
		t.AddRow(o.Pair.Size.Label,
			FmtDuration(rt.Legs[0].Time), FmtDuration(rt.Legs[1].Time),
			FmtDuration(rt.Legs[2].Time), FmtDuration(rt.Legs[3].Time),
			FmtDuration(rt.Legs[4].Time), FmtDuration(rt.Legs[5].Time),
			FmtDuration(rt.Total()),
			fmt.Sprintf("%.0f%%", 100*rt.EncodeDecodeShare()))
	}
	return t
}

// Fig2 regenerates Figure 2: sender-side encode times on the sparc for
// XML, MPICH, CORBA and PBIO.
func Fig2() *Table {
	t := &Table{
		Title:  "Figure 2: sender encode times on sparc (lower is better)",
		Header: []string{"size", "XML", "MPICH", "CORBA", "PBIO"},
	}
	for _, o := range allOps() {
		t.AddRow(o.Pair.Size.Label,
			FmtDuration(Measure(o.XMLEncode())),
			FmtDuration(Measure(o.MPIEncode())),
			FmtDuration(Measure(o.CORBAEncode())),
			FmtDuration(Measure(o.PBIOEncode())))
	}
	return t
}

// Fig3 regenerates Figure 3: receiver-side decode times on the sparc
// (heterogeneous exchange, interpreted converters) for XML, MPICH, CORBA
// and PBIO.
func Fig3() *Table {
	t := &Table{
		Title:  "Figure 3: receiver decode times on sparc, heterogeneous (interpreted)",
		Header: []string{"size", "XML", "MPICH", "CORBA", "PBIO-interp"},
	}
	for _, o := range allOps() {
		t.AddRow(o.Pair.Size.Label,
			FmtDuration(Measure(o.XMLDecode())),
			FmtDuration(Measure(o.MPIDecode())),
			FmtDuration(Measure(o.CORBADecode())),
			FmtDuration(Measure(o.PBIOInterpDecode())))
	}
	return t
}

// Fig4 regenerates Figure 4: receiver decode with MPICH vs interpreted
// PBIO vs DCG PBIO — the payoff of dynamic code generation.
func Fig4() *Table {
	t := &Table{
		Title:  "Figure 4: receiver decode, interpreted vs dynamically generated conversion",
		Header: []string{"size", "MPICH", "PBIO-interp", "PBIO-DCG"},
	}
	for _, o := range allOps() {
		t.AddRow(o.Pair.Size.Label,
			FmtDuration(Measure(o.MPIDecode())),
			FmtDuration(Measure(o.PBIOInterpDecode())),
			FmtDuration(Measure(o.PBIODCGDecode())))
	}
	return t
}

// Fig5 regenerates Figure 5: full roundtrip comparison, PBIO (DCG) vs
// MPICH, with per-leg breakdowns and the total ratio.
func Fig5() *Table {
	t := &Table{
		Title: "Figure 5: roundtrip comparison, MPICH vs PBIO-DCG (sparc <-> x86)",
		Note: "PBIO transmits native bytes (larger wire size, no encode); MPICH packs to XDR; " +
			"CPU legs scaled to the paper's machines",
		Header: []string{"size", "system", "A enc", "net", "B dec", "B enc", "net", "A dec",
			"total", "vs MPICH"},
	}
	ops := allOps()
	// Measure every leg for both systems first, then anchor the CPU
	// scale on the 100 Kb MPICH encode legs just measured.
	type legs struct{ mEncS, mDecX, mEncX, mDecS, pEncS, pDecX, pDecS time.Duration }
	measured := make([]legs, len(ops))
	for i, o := range ops {
		measured[i] = legs{
			mEncS: Measure(o.MPIEncode()),
			mDecX: Measure(o.MPIDecodeX86()),
			mEncX: Measure(o.MPIEncodeX86()),
			mDecS: Measure(o.MPIDecode()),
			pEncS: Measure(o.PBIOEncode()),
			pDecX: Measure(o.PBIODCGDecodeX86()),
			pDecS: Measure(o.PBIODCGDecode()),
		}
	}
	big := measured[len(measured)-1]
	cpuS, cpuX := CalibrateCPUs(big.mEncS, big.mEncX)
	for i, o := range ops {
		m := measured[i]
		mN := o.MPIPackedSize()
		mrt := netsim.NewRoundTrip(linkModel,
			cpuS.Time(m.mEncS), cpuX.Time(m.mDecX), cpuX.Time(m.mEncX), cpuS.Time(m.mDecS), mN, mN)

		// PBIO roundtrip: encode legs are NDR handoffs; decode legs are
		// generated conversions; the wire carries the native record.
		prt := netsim.NewRoundTrip(linkModel,
			cpuS.Time(m.pEncS), cpuX.Time(m.pDecX),
			cpuS.Time(m.pEncS) /* NDR handoff is symmetric */, cpuS.Time(m.pDecS),
			o.PBIOWireSize(), o.PBIOWireSize())

		t.AddRow(o.Pair.Size.Label, "MPICH",
			FmtDuration(mrt.Legs[0].Time), FmtDuration(mrt.Legs[1].Time),
			FmtDuration(mrt.Legs[2].Time), FmtDuration(mrt.Legs[3].Time),
			FmtDuration(mrt.Legs[4].Time), FmtDuration(mrt.Legs[5].Time),
			FmtDuration(mrt.Total()), "100%")
		t.AddRow("", "PBIO-DCG",
			FmtDuration(prt.Legs[0].Time), FmtDuration(prt.Legs[1].Time),
			FmtDuration(prt.Legs[2].Time), FmtDuration(prt.Legs[3].Time),
			FmtDuration(prt.Legs[4].Time), FmtDuration(prt.Legs[5].Time),
			FmtDuration(prt.Total()),
			fmt.Sprintf("%.0f%%", 100*float64(prt.Total())/float64(mrt.Total())))
	}
	return t
}

// Fig6 regenerates Figure 6: heterogeneous receive with and without an
// unexpected (worst-case, leading) field, using generated conversions.
// The paper's finding: the extra field has no effect, because the
// heterogeneous conversion already relocates every field.
func Fig6() *Table {
	t := &Table{
		Title:  "Figure 6: heterogeneous receive, matched vs unexpected field (PBIO-DCG)",
		Note:   "the extra field shifts every expected offset; conversion already relocates fields",
		Header: []string{"size", "matched", "mismatched", "ratio"},
	}
	for _, s := range Sizes() {
		matched := Measure(MustOps(MustPair(s, MixedSchema)).PBIODCGDecode())
		mism := Measure(NewHeteroExt(s).HeteroMismatchedDecode())
		t.AddRow(s.Label, FmtDuration(matched), FmtDuration(mism),
			fmt.Sprintf("%.2fx", float64(mism)/float64(matched)))
	}
	return t
}

// Fig7 regenerates Figure 7: homogeneous receive with matching layouts
// (no conversion at all) vs a mismatch introduced by an unexpected field
// (field relocation, ~memcpy cost).
func Fig7() *Table {
	t := &Table{
		Title:  "Figure 7: homogeneous receive, matching vs mismatched fields (PBIO-DCG)",
		Note:   "matched: record used in place, zero copies; mismatched: relocation ~ memcpy",
		Header: []string{"size", "matched", "mismatched", "memcpy ref"},
	}
	for _, s := range Sizes() {
		o := MustOps(MustPair(s, MixedSchema))
		hx := NewHeteroExt(s)
		t.AddRow(s.Label,
			FmtDuration(Measure(o.PBIOHomogeneousDecode())),
			FmtDuration(Measure(hx.HomoMismatchedDecode())),
			FmtDuration(Measure(o.Memcpy())))
	}
	return t
}

// Claims computes the paper's headline numbers — sender encode
// improvement (up to 3 orders of magnitude), receiver decode improvement
// (~1 order), the roundtrip ratio (45% of MPICH at 100Kb) — and checks
// the orderings Figures 2-7 rest on, each a ratio of two measured legs
// against the bound it must meet.  The error names every ordering that
// did not hold; wireperf exits non-zero on it.
func Claims() (*Table, error) {
	c := &claims{Table: &Table{
		Title:  "Headline claims (paper section 1 / 5) and the figures' orderings",
		Note:   "headline rows are reported; an ordering row that does not hold fails wireperf",
		Header: []string{"claim", "paper", "measured", "verdict"},
	}}
	ops := allOps()
	small, big := ops[0], ops[len(ops)-1] // 100b, 100Kb

	encMPI := Measure(big.MPIEncode())
	encPBIO := Measure(big.PBIOEncode())
	c.AddRow("sender encode speedup (100Kb, MPICH/PBIO)",
		"up to ~1000x", fmt.Sprintf("%.0fx", float64(encMPI)/float64(encPBIO)), "")

	decMPI := Measure(big.MPIDecode())
	decPBIO := Measure(big.PBIODCGDecode())
	c.AddRow("receiver decode speedup (100Kb, MPICH/PBIO-DCG)",
		"~10x", fmt.Sprintf("%.1fx", float64(decMPI)/float64(decPBIO)), "")

	encMPIX86 := Measure(big.MPIEncodeX86())
	cpuS, cpuX := CalibrateCPUs(encMPI, encMPIX86)
	mrt := netsim.NewRoundTrip(linkModel, cpuS.Time(encMPI), cpuX.Time(Measure(big.MPIDecodeX86())),
		cpuX.Time(encMPIX86), cpuS.Time(decMPI),
		big.MPIPackedSize(), big.MPIPackedSize())
	prt := netsim.NewRoundTrip(linkModel, cpuS.Time(encPBIO), cpuX.Time(Measure(big.PBIODCGDecodeX86())),
		cpuS.Time(encPBIO), cpuS.Time(decPBIO), big.PBIOWireSize(), big.PBIOWireSize())
	c.AddRow("roundtrip time vs MPICH (100Kb)",
		"45%", fmt.Sprintf("%.0f%%", 100*float64(prt.Total())/float64(mrt.Total())), "")

	xmlEnc := Measure(big.XMLEncode())
	c.AddRow("XML encode vs PBIO encode (100Kb)",
		">1000x", fmt.Sprintf("%.0fx", float64(xmlEnc)/float64(encPBIO)), "")

	c.AddRow("XML wire expansion vs binary",
		"6-8x", fmt.Sprintf("%.1fx", float64(big.XMLWireSize())/float64(big.Pair.X86Fmt.Size)), "")

	// Figure 2: PBIO's sender cost is flat in record size, MPICH's
	// linear; at 100Kb XML >> {MPICH, CORBA} >> PBIO.
	c.order("PBIO encode, 100Kb / 100b", encPBIO, Measure(small.PBIOEncode()), "<=", 10)
	c.order("MPICH encode, 100Kb / 100b", encMPI, Measure(small.MPIEncode()), ">=", 100)
	encCORBA := Measure(big.CORBAEncode())
	c.order("XML / MPICH encode (100Kb)", xmlEnc, encMPI, ">=", 3)
	c.order("XML / CORBA encode (100Kb)", xmlEnc, encCORBA, ">=", 3)
	c.order("MPICH / PBIO encode (100Kb)", encMPI, encPBIO, ">=", 100)
	c.order("CORBA / PBIO encode (100Kb)", encCORBA, encPBIO, ">=", 100)

	// Figures 3 and 4 at 100Kb: XML >> MPICH >= PBIO-interp > PBIO-DCG.
	interp := Measure(big.PBIOInterpDecode())
	c.order("XML / MPICH decode (100Kb)", Measure(big.XMLDecode()), decMPI, ">=", 3)
	c.order("PBIO-interp / MPICH decode (100Kb)", interp, decMPI, "<=", 1.2)
	c.order("PBIO-DCG / PBIO-interp decode (100Kb)", decPBIO, interp, "<=", 0.5)

	// Figure 6: an unexpected field costs a heterogeneous receive
	// (almost) nothing.  Figure 7: a matched homogeneous receive does no
	// per-byte work, far below the mismatched relocation.
	ext := NewHeteroExt(big.Pair.Size)
	c.order("unexpected / matched field, hetero receive (100Kb)",
		Measure(ext.HeteroMismatchedDecode()), decPBIO, "<=", 1.4)
	homo := Measure(big.PBIOHomogeneousDecode())
	c.order("matched homogeneous receive, 100Kb / 100b", homo, Measure(small.PBIOHomogeneousDecode()), "<=", 10)
	c.order("matched / mismatched homogeneous receive (100Kb)", homo, Measure(ext.HomoMismatchedDecode()), "<=", 0.1)

	if len(c.violated) > 0 {
		return c.Table, fmt.Errorf("%d ordering(s) violated: %s", len(c.violated), strings.Join(c.violated, "; "))
	}
	return c.Table, nil
}

// claims is the Claims table under construction and the orderings it
// found violated.
type claims struct {
	*Table
	violated []string
}

// order adds an ordering row: it holds when a/b rel bound, where rel is
// "<=" or ">=".
func (c *claims) order(claim string, a, b time.Duration, rel string, bound float64) {
	r := float64(a) / float64(b)
	holds := r <= bound
	if rel == ">=" {
		holds = r >= bound
	}
	verdict := "holds"
	if !holds {
		verdict = "VIOLATED"
		c.violated = append(c.violated, claim)
	}
	c.AddRow(claim, fmt.Sprintf("%s %gx", rel, bound), fmt.Sprintf("%.2fx", r), verdict)
}
