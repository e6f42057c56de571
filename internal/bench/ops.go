package bench

import (
	"fmt"
	"io"

	"repro/internal/convert"
	"repro/internal/dcg"
	"repro/internal/iiop"
	"repro/internal/mpi"
	"repro/internal/native"
	"repro/internal/transport"
	"repro/internal/xmlwire"
)

// Ops packages the measurable operations for one message size: each
// system's sender-side encode (performed on the "sparc" writer, per
// Figure 2) and receiver-side decode (performed on the "sparc" reader of
// x86-written data, per Figure 3), plus the legs needed for roundtrip
// composition.  All inputs and destination buffers are prebuilt so the
// closures measure only the operation itself.
type Ops struct {
	Pair *Pair

	// Prebuilt wire images of the x86 sender's record.
	xmlFromX86 []byte
	xdrFromX86 []byte
	cdrFromX86 []byte
	// Prebuilt wire image of the sparc sender's record (for x86-side
	// decode legs in roundtrips).
	xdrFromSparc []byte

	// Reused buffers and engines.
	xmlEnc     *xmlwire.Encoder
	xmlDec     *xmlwire.Decoder
	cdrEnc     *iiop.Encoder
	packBuf    []byte
	sparcDst   *native.Record
	x86Dst     *native.Record
	pbioWriter *transport.Writer
	interpS    *convert.Interp // x86 wire -> sparc native
	progS      *dcg.Program    // x86 wire -> sparc native
	progX      *dcg.Program    // sparc wire -> x86 native
	interpX    *convert.Interp // sparc wire -> x86 native
	sparcSame  *dcg.Program    // sparc wire -> sparc native (homogeneous no-op)
	sparcWire  []byte          // copy of the sparc record as received bytes
	x86Wire    []byte          // copy of the x86 record as received bytes
}

// BuildOps precomputes fixtures for the pair.
func BuildOps(p *Pair) (*Ops, error) {
	o := &Ops{Pair: p}

	// XML document as written by the x86 side.
	xe := xmlwire.NewEncoder(nil)
	if err := xe.EncodeRecord(p.X86Rec); err != nil {
		return nil, err
	}
	o.xmlFromX86 = append([]byte(nil), xe.Bytes()...)
	o.xmlEnc = xmlwire.NewEncoder(make([]byte, 0, len(o.xmlFromX86)*2))
	o.xmlDec = xmlwire.NewDecoder(p.SparcFmt)

	// MPI packed (XDR) images from both sides.
	var err error
	if o.xdrFromX86, err = p.X86DT.Pack(nil, p.X86Rec.Buf, mpi.ModeXDR); err != nil {
		return nil, err
	}
	if o.xdrFromSparc, err = p.SparcDT.Pack(nil, p.SparcRec.Buf, mpi.ModeXDR); err != nil {
		return nil, err
	}
	o.packBuf = make([]byte, 0, len(o.xdrFromSparc))

	// CDR body from the x86 side.
	ce := iiop.NewEncoder(p.X86Fmt.Order, nil)
	if err := iiop.MarshalRecord(ce, p.X86Rec); err != nil {
		return nil, err
	}
	o.cdrFromX86 = append([]byte(nil), ce.Bytes()...)
	o.cdrEnc = iiop.NewEncoder(p.SparcFmt.Order, make([]byte, 0, len(o.cdrFromX86)+64))

	// PBIO conversion engines for both directions.
	planS, err := convert.NewPlan(p.X86Fmt, p.SparcFmt)
	if err != nil {
		return nil, err
	}
	o.interpS = convert.NewInterp(planS)
	if o.progS, err = dcg.Compile(planS); err != nil {
		return nil, err
	}
	planX, err := convert.NewPlan(p.SparcFmt, p.X86Fmt)
	if err != nil {
		return nil, err
	}
	o.interpX = convert.NewInterp(planX)
	if o.progX, err = dcg.Compile(planX); err != nil {
		return nil, err
	}
	planSame, err := convert.NewPlan(p.SparcFmt, p.SparcFmt)
	if err != nil {
		return nil, err
	}
	if o.sparcSame, err = dcg.Compile(planSame); err != nil {
		return nil, err
	}

	o.sparcDst = native.New(p.SparcFmt)
	o.x86Dst = native.New(p.X86Fmt)
	o.sparcWire = append([]byte(nil), p.SparcRec.Buf...)
	o.x86Wire = append([]byte(nil), p.X86Rec.Buf...)
	o.pbioWriter = transport.NewWriter(io.Discard)
	return o, nil
}

// MustOps is BuildOps that panics on error.
func MustOps(p *Pair) *Ops {
	o, err := BuildOps(p)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return o
}

// ---- Sender-side encode (on the sparc writer, Figure 2) ----

// XMLEncode converts the binary record to XML text.
func (o *Ops) XMLEncode() func() {
	return func() {
		o.xmlEnc.Reset()
		if err := o.xmlEnc.EncodeRecord(o.Pair.SparcRec); err != nil {
			panic(err)
		}
	}
}

// MPIEncode packs the record into the XDR common format (interpreted
// typemap walk).
func (o *Ops) MPIEncode() func() {
	return func() {
		out, err := o.Pair.SparcDT.Pack(o.packBuf[:0], o.Pair.SparcRec.Buf, mpi.ModeXDR)
		if err != nil {
			panic(err)
		}
		o.packBuf = out[:0]
	}
}

// CORBAEncode marshals the record into a CDR body (copying, no swap).
func (o *Ops) CORBAEncode() func() {
	return func() {
		o.cdrEnc.Reset()
		if err := iiop.MarshalRecord(o.cdrEnc, o.Pair.SparcRec); err != nil {
			panic(err)
		}
	}
}

// PBIOEncode is NDR's sender side: no conversion, no copy — hand the
// native buffer to the transport (measured against a discarding sink, so
// only PBIO's own bookkeeping is timed).
func (o *Ops) PBIOEncode() func() {
	return func() {
		if err := o.pbioWriter.WriteRecord(o.Pair.SparcFmt, o.Pair.SparcRec.Buf); err != nil {
			panic(err)
		}
	}
}

// ---- Receiver-side decode (on the sparc reader of x86 data, Figure 3/4) ----

// XMLDecode parses the XML document and converts fields to binary.
func (o *Ops) XMLDecode() func() {
	return func() {
		if _, err := o.xmlDec.DecodeRecord(o.xmlFromX86); err != nil {
			panic(err)
		}
	}
}

// MPIDecode unpacks the XDR image into the user buffer (interpreted).
func (o *Ops) MPIDecode() func() {
	return func() {
		if err := o.Pair.SparcDT.Unpack(o.sparcDst.Buf, o.xdrFromX86, mpi.ModeXDR); err != nil {
			panic(err)
		}
	}
}

// CORBADecode unmarshals the CDR body (reader-makes-right).
func (o *Ops) CORBADecode() func() {
	return func() {
		d := iiop.NewDecoder(o.Pair.X86Fmt.Order, o.cdrFromX86)
		if err := iiop.UnmarshalRecord(d, o.sparcDst); err != nil {
			panic(err)
		}
	}
}

// PBIOInterpDecode converts the x86-native wire record with the
// table-driven interpreter.
func (o *Ops) PBIOInterpDecode() func() {
	return func() {
		if err := o.interpS.Convert(o.sparcDst.Buf, o.x86Wire); err != nil {
			panic(err)
		}
	}
}

// PBIODCGDecode converts with the generated program.
func (o *Ops) PBIODCGDecode() func() {
	return func() {
		if err := o.progS.Convert(o.sparcDst.Buf, o.x86Wire); err != nil {
			panic(err)
		}
	}
}

// ---- Legs for roundtrip composition (Figures 1 and 5) ----

// MPIEncodeX86 packs on the x86 side (reply leg).
func (o *Ops) MPIEncodeX86() func() {
	return func() {
		out, err := o.Pair.X86DT.Pack(o.packBuf[:0], o.Pair.X86Rec.Buf, mpi.ModeXDR)
		if err != nil {
			panic(err)
		}
		o.packBuf = out[:0]
	}
}

// MPIDecodeX86 unpacks sparc-sent XDR on the x86 side (forward leg).
func (o *Ops) MPIDecodeX86() func() {
	return func() {
		if err := o.Pair.X86DT.Unpack(o.x86Dst.Buf, o.xdrFromSparc, mpi.ModeXDR); err != nil {
			panic(err)
		}
	}
}

// PBIODCGDecodeX86 converts sparc-native wire bytes to x86 layout.
func (o *Ops) PBIODCGDecodeX86() func() {
	return func() {
		if err := o.progX.Convert(o.x86Dst.Buf, o.sparcWire); err != nil {
			panic(err)
		}
	}
}

// PBIOHomogeneousDecode is the matched homogeneous receive: layouts are
// identical, so the generated program is a no-op executed in place on the
// receive buffer.
func (o *Ops) PBIOHomogeneousDecode() func() {
	return func() {
		if err := o.sparcSame.Convert(o.sparcWire, o.sparcWire); err != nil {
			panic(err)
		}
	}
}

// Memcpy copies the x86-sized record, the paper's reference cost for
// mismatched homogeneous receives.
func (o *Ops) Memcpy() func() {
	return func() {
		copy(o.x86Dst.Buf, o.x86Wire)
	}
}

// MPIPackedSize returns the XDR wire size for the pair.
func (o *Ops) MPIPackedSize() int { return len(o.xdrFromSparc) }

// PBIOWireSize returns the NDR wire size (native record + frame header).
func (o *Ops) PBIOWireSize() int { return transport.WireSize(o.Pair.SparcFmt) }

// XMLWireSize returns the XML document size.
func (o *Ops) XMLWireSize() int { return len(o.xmlFromX86) }

// CDRWireSize returns the CDR body size.
func (o *Ops) CDRWireSize() int { return len(o.cdrFromX86) }
