package bench

import (
	"strings"
	"testing"
	"time"
)

func TestSizesHitTargets(t *testing.T) {
	sizes := Sizes()
	if len(sizes) != 4 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	for _, s := range sizes {
		p := MustPair(s, MixedSchema)
		got := p.X86Fmt.Size
		// Within 10% of the paper's nominal size.
		if diff(got, s.Target)*10 > s.Target {
			t.Errorf("%s: x86 record %d bytes, target %d", s.Label, got, s.Target)
		}
	}
}

func TestPairLayoutsDiffer(t *testing.T) {
	p := MustPair(Sizes()[0], MixedSchema)
	if p.SparcFmt.Size == p.X86Fmt.Size {
		t.Error("sparc and x86 sizes equal; heterogeneity missing")
	}
	if p.SparcFmt.Order == p.X86Fmt.Order {
		t.Error("byte orders equal")
	}
}

func TestOpsProduceConsistentResults(t *testing.T) {
	// Every decode op must run without panicking, and the PBIO ops must
	// actually reproduce the sender's values.
	o := MustOps(MustPair(Size{Label: "t", Target: 1000, N: 120}, MixedSchema))
	ops := map[string]func(){
		"XMLEncode":        o.XMLEncode(),
		"MPIEncode":        o.MPIEncode(),
		"CORBAEncode":      o.CORBAEncode(),
		"PBIOEncode":       o.PBIOEncode(),
		"XMLDecode":        o.XMLDecode(),
		"MPIDecode":        o.MPIDecode(),
		"CORBADecode":      o.CORBADecode(),
		"PBIOInterpDecode": o.PBIOInterpDecode(),
		"PBIODCGDecode":    o.PBIODCGDecode(),
		"MPIEncodeX86":     o.MPIEncodeX86(),
		"MPIDecodeX86":     o.MPIDecodeX86(),
		"PBIODCGDecodeX86": o.PBIODCGDecodeX86(),
		"PBIOHomogeneous":  o.PBIOHomogeneousDecode(),
		"Memcpy":           o.Memcpy(),
	}
	for name, fn := range ops {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", name, r)
				}
			}()
			fn()
		}()
	}
	if o.MPIPackedSize() <= 0 || o.PBIOWireSize() <= 0 || o.XMLWireSize() <= 0 || o.CDRWireSize() <= 0 {
		t.Error("wire size accessor returned nonpositive")
	}
}

func TestMeasureReturnsPositive(t *testing.T) {
	d := Measure(func() { time.Sleep(10 * time.Microsecond) })
	if d < 5*time.Microsecond {
		t.Errorf("Measure = %v, implausibly small", d)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{150 * time.Millisecond, "150.0ms"},
		{3 * time.Millisecond, "3.00ms"},
		{42 * time.Microsecond, "0.0420ms"},
		{500 * time.Nanosecond, "0.000500ms"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tab.AddRow("x", "1")
	tab.AddRow("yy", "22")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bb", "yy", "22"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestHeteroExtFixture(t *testing.T) {
	e := NewHeteroExt(Size{Label: "t", Target: 1000, N: 120})
	for name, fn := range map[string]func(){
		"hetero": e.HeteroMismatchedDecode(),
		"homo":   e.HomoMismatchedDecode(),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", name, r)
				}
			}()
			fn()
			fn()
		}()
	}
}

// TestFiguresShape runs every table the default wireperf run prints via
// the real entry points and sanity-checks structure, not numbers: the
// claims table's orderings are timing verdicts, so whether they held is
// wireperf's exit status, not this test's.
func TestFiguresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow; run without -short")
	}
	figs := map[string]func() *Table{
		"fig1": Fig1, "fig2": Fig2, "fig3": Fig3, "fig4": Fig4,
		"fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
		"homo": Homo, "wire": WireSizes, "xmlrt": XMLRoundTrip, "live": LiveRoundTrip,
		"claims": func() *Table { tab, _ := Claims(); return tab },
	}
	for name, fn := range figs {
		name, fn := name, fn
		t.Run(name, func(t *testing.T) {
			tab := fn()
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", name)
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("%s row %d has %d cells, header has %d",
						name, i, len(row), len(tab.Header))
				}
				for _, cell := range row {
					if strings.HasPrefix(cell, "error:") {
						t.Errorf("%s row %d: %s", name, i, cell)
					}
				}
			}
		})
	}
}
