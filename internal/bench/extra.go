package bench

import (
	"fmt"
	"time"

	"repro/internal/abi"
	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/iiop"
	"repro/internal/mpi"
	"repro/internal/native"
	"repro/internal/netsim"
	"repro/internal/wire"
	"repro/internal/xmlwire"
)

// Tables for questions the paper's text asks and no figure answers.
// wireperf prints them after the figures; every other extension question
// has a benchmark row or a testing.B of its own.

// Homo quantifies the paper's §4.3 parenthetical: "On an exchange
// between homogeneous architectures, PBIO and MPI would have
// substantially lower costs, while XML's costs would remain unchanged."
// Receiver-side decode, x86 -> x86.
func Homo() *Table {
	t := &Table{
		Title:  "Extension: receiver decode on a homogeneous exchange (x86 -> x86)",
		Note:   "MPI uses its raw (no-conversion) mode; PBIO uses the record in place",
		Header: []string{"size", "XML", "MPICH-raw", "CORBA", "PBIO"},
	}
	for _, s := range Sizes() {
		f := wire.MustLayout(MixedSchema(s.N), &abi.X86)
		src := native.New(f)
		native.FillDeterministic(src, int64(s.Target))

		// XML image and decoder.
		xe := xmlwireEncoder(src)
		xdec := xmlwire.NewDecoder(f)
		xmlT := Measure(func() {
			if _, err := xdec.DecodeRecord(xe); err != nil {
				panic(err)
			}
		})

		// MPI raw mode.
		dt, err := mpi.FromFormat(&abi.X86, f)
		if err != nil {
			panic(err)
		}
		dt.Commit()
		packed, err := dt.Pack(nil, src.Buf, mpi.ModeRaw)
		if err != nil {
			panic(err)
		}
		dst := native.New(f)
		mpiT := Measure(func() {
			if err := dt.Unpack(dst.Buf, packed, mpi.ModeRaw); err != nil {
				panic(err)
			}
		})

		// CORBA: same byte order, still copies out of the packed stream.
		ce := iiop.NewEncoder(f.Order, nil)
		if err := iiop.MarshalRecord(ce, src); err != nil {
			panic(err)
		}
		body := append([]byte(nil), ce.Bytes()...)
		corbaT := Measure(func() {
			if err := iiop.UnmarshalRecord(iiop.NewDecoder(f.Order, body), dst); err != nil {
				panic(err)
			}
		})

		// PBIO: identical layouts, record used in place.
		plan, err := convert.NewPlan(f, f)
		if err != nil {
			panic(err)
		}
		prog, err := dcg.Compile(plan)
		if err != nil {
			panic(err)
		}
		recvBuf := append([]byte(nil), src.Buf...)
		pbioT := Measure(func() {
			if err := prog.Convert(recvBuf, recvBuf); err != nil {
				panic(err)
			}
		})

		t.AddRow(s.Label, FmtDuration(xmlT), FmtDuration(mpiT),
			FmtDuration(corbaT), FmtDuration(pbioT))
	}
	return t
}

// XMLRoundTrip composes the roundtrip the paper left off Figure 5 "to
// keep the figure to a reasonable scale": XML vs PBIO, with CPU legs
// scaled to the paper's machines and network legs from the link model —
// XML pays both conversion AND a larger wire image.
func XMLRoundTrip() *Table {
	t := &Table{
		Title: "Extension: the roundtrip Figure 5 omitted — XML vs PBIO-DCG",
		Note:  "CPU legs scaled to the paper's machines; XML's network legs carry the expanded text",
		Header: []string{"size", "system", "A enc", "net", "B dec", "B enc", "net", "A dec",
			"total", "vs PBIO"},
	}
	ops := allOps()
	type legs struct {
		xEnc, xDec, pEnc, pDecX, pDecS time.Duration
		mEncS, mEncX                   time.Duration
	}
	measured := make([]legs, len(ops))
	for i, o := range ops {
		measured[i] = legs{
			xEnc: Measure(o.XMLEncode()), xDec: Measure(o.XMLDecode()),
			pEnc: Measure(o.PBIOEncode()), pDecX: Measure(o.PBIODCGDecodeX86()),
			pDecS: Measure(o.PBIODCGDecode()),
			mEncS: Measure(o.MPIEncode()), mEncX: Measure(o.MPIEncodeX86()),
		}
	}
	big := measured[len(measured)-1]
	cpuS, cpuX := CalibrateCPUs(big.mEncS, big.mEncX)
	for i, o := range ops {
		m := measured[i]
		xN := o.XMLWireSize()
		// XML decode measured on the "sparc" side; approximate the x86
		// side with the same host time scaled by the x86 model.
		xrt := netsim.NewRoundTrip(linkModel,
			cpuS.Time(m.xEnc), cpuX.Time(m.xDec), cpuX.Time(m.xEnc), cpuS.Time(m.xDec),
			xN, xN)
		prt := netsim.NewRoundTrip(linkModel,
			cpuS.Time(m.pEnc), cpuX.Time(m.pDecX), cpuS.Time(m.pEnc), cpuS.Time(m.pDecS),
			o.PBIOWireSize(), o.PBIOWireSize())
		t.AddRow(o.Pair.Size.Label, "PBIO-DCG",
			FmtDuration(prt.Legs[0].Time), FmtDuration(prt.Legs[1].Time),
			FmtDuration(prt.Legs[2].Time), FmtDuration(prt.Legs[3].Time),
			FmtDuration(prt.Legs[4].Time), FmtDuration(prt.Legs[5].Time),
			FmtDuration(prt.Total()), "100%")
		t.AddRow("", "XML",
			FmtDuration(xrt.Legs[0].Time), FmtDuration(xrt.Legs[1].Time),
			FmtDuration(xrt.Legs[2].Time), FmtDuration(xrt.Legs[3].Time),
			FmtDuration(xrt.Legs[4].Time), FmtDuration(xrt.Legs[5].Time),
			FmtDuration(xrt.Total()),
			fmt.Sprintf("%.0f%%", 100*float64(xrt.Total())/float64(prt.Total())))
	}
	return t
}

// WireSizes compares bytes-on-the-wire per record across the systems —
// the "compactness of wire formats" axis the paper's conclusions call
// out.  NDR trades some size (native padding travels) for zero encode
// cost; XML pays its expansion factor on every record.
func WireSizes() *Table {
	t := &Table{
		Title:  "Extension: wire bytes per record (sparc-v8 sender)",
		Note:   "PBIO = native record + frame header (one-time meta excluded); MPI/CORBA packed; XML text",
		Header: []string{"size", "native", "PBIO", "MPI-XDR", "CORBA-CDR", "XML", "XML/native"},
	}
	for _, s := range Sizes() {
		o := MustOps(MustPair(s, MixedSchema))
		nativeSize := o.Pair.SparcFmt.Size
		t.AddRow(s.Label,
			fmt.Sprint(nativeSize),
			fmt.Sprint(o.PBIOWireSize()),
			fmt.Sprint(o.MPIPackedSize()),
			fmt.Sprint(o.CDRWireSize()),
			fmt.Sprint(o.XMLWireSize()),
			fmt.Sprintf("%.1fx", float64(o.XMLWireSize())/float64(nativeSize)))
	}
	return t
}

// xmlwireEncoder returns the XML image of a record.
func xmlwireEncoder(rec *native.Record) []byte {
	e := xmlwire.NewEncoder(nil)
	if err := e.EncodeRecord(rec); err != nil {
		panic(err)
	}
	return append([]byte(nil), e.Bytes()...)
}
