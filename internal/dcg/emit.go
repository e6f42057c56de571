package dcg

import (
	"fmt"

	"repro/internal/abi"
	"repro/internal/convert"
)

// Emit lowers a conversion plan to a virtual instruction stream.  The
// stream is unoptimized; Optimize coalesces it.
func Emit(p *convert.Plan) ([]Instr, error) {
	if p.NoOp {
		return nil, nil
	}
	// One instruction per op; the rare zeroed tails and inlined
	// structure bodies grow the stream as they come.
	code := make([]Instr, 0, len(p.Ops))
	for i := range p.Ops {
		o := &p.Ops[i]
		srcBig := o.SrcOrder == abi.BigEndian
		dstBig := o.DstOrder == abi.BigEndian
		switch o.Kind {
		case convert.OpCopy:
			if n := o.SrcSize * o.Count; n > 0 {
				code = append(code, Instr{Op: IMovBlk, Dst: o.DstOff, Src: o.SrcOff, Len: n})
			}
		case convert.OpSwap:
			code = append(code, Instr{
				Op: ISwap, Dst: o.DstOff, Src: o.SrcOff,
				Count: o.Count, Width: o.SrcSize,
			})
		case convert.OpIntCvt:
			code = append(code, Instr{
				Op: ICvtInt, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
				SrcW: o.SrcSize, DstW: o.DstSize, Signed: o.Signed,
				SrcBig: srcBig, DstBig: dstBig,
			})
		case convert.OpFloatCvt:
			code = append(code, Instr{
				Op: ICvtFloat, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
				SrcW: o.SrcSize, DstW: o.DstSize,
				SrcBig: srcBig, DstBig: dstBig,
			})
		case convert.OpStruct:
			sub, err := Emit(o.Sub)
			if err != nil {
				return nil, err
			}
			sub = Optimize(sub)
			if o.Count <= inlineStructLimit {
				// Inline small structure fields: emit the subroutine
				// body at absolute offsets per element, so the peephole
				// pass can fuse across element and field boundaries —
				// the "runtime binary code optimization" the paper's
				// future-work section anticipates.
				for e := 0; e < o.Count; e++ {
					code = append(code, shiftInstrs(sub,
						o.DstOff+e*o.DstSize, o.SrcOff+e*o.SrcSize)...)
				}
			} else {
				code = append(code, Instr{
					Op: ICall, Dst: o.DstOff, Src: o.SrcOff, Count: o.Count,
					SrcW: o.SrcSize, DstW: o.DstSize,
					Sub: sub,
				})
			}
		case convert.OpZero:
			// Whole-field zero; TailZero carries the length.
		default:
			return nil, fmt.Errorf("dcg: cannot lower op kind %v", o.Kind)
		}
		if o.TailZero > 0 {
			start := o.DstOff + o.DstSize*o.Count
			if o.Kind == convert.OpZero {
				start = o.DstOff
			}
			code = append(code, Instr{Op: IZero, Dst: start, Len: o.TailZero})
		}
	}
	return code, nil
}

// maxGap is the largest hole (alignment padding) the optimizer will copy
// through when fusing adjacent block moves.  Copying a few padding bytes
// is cheaper than issuing another instruction.
const maxGap = 16

// inlineStructLimit is the largest element count for which a nested
// structure field's conversion is inlined at absolute offsets rather than
// compiled as a counted subroutine call.  Inlined bodies participate in
// peephole fusion with their neighbors; larger arrays keep the call loop
// to bound code size.
const inlineStructLimit = 8

// shiftInstrs returns a copy of code with every destination and source
// offset rebased by the given deltas (subroutine bodies are relative to
// their element start).
func shiftInstrs(code []Instr, dstDelta, srcDelta int) []Instr {
	out := make([]Instr, len(code))
	for i, in := range code {
		in.Dst += dstDelta
		if in.Op != IZero { // IZero has no source
			in.Src += srcDelta
		}
		out[i] = in
	}
	return out
}

// FuseBatch lowers a per-record instruction stream for records of at
// least size bytes on both sides to the batch run ops that execute it.
// Clusters of short in-place swaps and moves become whole-block shuffles
// (buildShuffles), which run first; every other instruction follows in
// plan order, in the word-fused form where it has one:
//
//   - width-8 swaps are one bits.ReverseBytes64 per element already;
//   - width-4 runs process element pairs per 64-bit word (ReverseBytes64
//     plus a half-word rotate to restore element order);
//   - width-2 runs process element quads per 64-bit word (a SWAR
//     mask-and-shift that reverses bytes within each 16-bit lane);
//   - width-1 swaps degenerate to moves, and moves/zeros pass through as
//     per-record runs (the per-record stream already coalesced them);
//   - converts and subroutine calls keep their per-record step (BStep).
//
// The input should already be optimized: FuseBatch widens elements into
// words, Optimize widens fields into element runs, and the former pays
// off most after the latter.
func FuseBatch(code []Instr, size int) []BatchOp {
	shufs, code := buildShuffles(code, size)
	ops := append(make([]BatchOp, 0, len(shufs)+len(code)), shufs...)
	for i := range code {
		in := &code[i]
		switch in.Op {
		case IMovBlk:
			ops = append(ops, BatchOp{Kind: BMove, In: *in})
		case IZero:
			ops = append(ops, BatchOp{Kind: BZero, In: *in})
		case ISwap:
			ops = append(ops, fuseSwap(in))
		default:
			ops = append(ops, BatchOp{Kind: BStep, In: *in})
		}
	}
	return ops
}

// fuseSwap picks the widest word shape a swap run supports.
func fuseSwap(in *Instr) BatchOp {
	perWord := 0
	switch in.Width {
	case 8:
		perWord = 1
	case 4:
		perWord = 2
	case 2:
		perWord = 4
	case 1:
		// Width-1 swap is a copy.
		return BatchOp{Kind: BMove, In: Instr{Op: IMovBlk, Dst: in.Dst, Src: in.Src, Len: in.Count}}
	default:
		return BatchOp{Kind: BSwap, In: *in} // rejected later by lowerBatchSwap
	}
	if words := in.Count / perWord; words > 0 {
		return BatchOp{Kind: BSwapWide, In: *in, Words: words, Rem: in.Count % perWord}
	}
	return BatchOp{Kind: BSwap, In: *in}
}

// Optimize applies peephole optimizations to an instruction stream and
// returns the (possibly shorter) result.  This plays the role of the
// paper's "runtime binary code optimization methods" (§5):
//
//   - adjacent block moves whose source and destination advance in step
//     are fused into one move, copying through small alignment gaps;
//   - adjacent same-width swaps over contiguous elements are fused into
//     one wider-count swap;
//   - adjacent zero-fills are merged.
//
// Fusion through gaps requires the source and destination gaps to be
// equal, so the bytes between fields (padding on both sides) are copied
// verbatim — harmless, since they are padding in both layouts.  That
// they are padding is only known when the stream ascends on both sides
// (ascending); a format that declares its fields out of offset order may
// keep another field in the hole, and its stream fuses exact neighbours
// only.
//
// Optimize consumes its argument: the result is compacted into code's
// storage (the write position never passes the read position), so a
// caller that still needs the unoptimized stream must pass a copy.
func Optimize(code []Instr) []Instr {
	if len(code) == 0 {
		return code
	}
	maxGap := maxGap
	if !ascending(code) {
		maxGap = 0
	}
	out := code[:1]
	for i := 1; i < len(code); i++ {
		in := &code[i]
		last := &out[len(out)-1]
		switch {
		case in.Op == IMovBlk && last.Op == IMovBlk:
			srcGap := in.Src - (last.Src + last.Len)
			dstGap := in.Dst - (last.Dst + last.Len)
			if srcGap == dstGap && srcGap >= 0 && srcGap <= maxGap {
				last.Len += srcGap + in.Len
				continue
			}
		case in.Op == ISwap && last.Op == ISwap && in.Width == last.Width:
			if in.Src == last.Src+last.Width*last.Count &&
				in.Dst == last.Dst+last.Width*last.Count {
				last.Count += in.Count
				continue
			}
		case in.Op == IZero && last.Op == IZero:
			gap := in.Dst - (last.Dst + last.Len)
			if gap >= 0 && gap <= maxGap {
				last.Len += gap + in.Len
				continue
			}
		case in.Op == ICvtInt && last.Op == ICvtInt:
			if in.SrcW == last.SrcW && in.DstW == last.DstW &&
				in.Signed == last.Signed && in.SrcBig == last.SrcBig && in.DstBig == last.DstBig &&
				in.Src == last.Src+last.SrcW*last.Count &&
				in.Dst == last.Dst+last.DstW*last.Count {
				last.Count += in.Count
				continue
			}
		case in.Op == ICvtFloat && last.Op == ICvtFloat:
			if in.SrcW == last.SrcW && in.DstW == last.DstW &&
				in.SrcBig == last.SrcBig && in.DstBig == last.DstBig &&
				in.Src == last.Src+last.SrcW*last.Count &&
				in.Dst == last.Dst+last.DstW*last.Count {
				last.Count += in.Count
				continue
			}
		}
		out = append(out, *in)
	}
	return out
}

// ascending reports whether every instruction starts at or above the end
// of the one before it, in the destination and in the source record — as
// in every stream emitted for formats that declare their fields in
// offset order, which is all wire.Layout produces.  The bytes between two
// neighbours then belong to no other instruction.
func ascending(code []Instr) bool {
	dEnd, sEnd := 0, 0
	for i := range code {
		in := &code[i]
		dLen, sLen := in.Len, in.Len
		switch in.Op {
		case ISwap:
			dLen, sLen = in.Count*in.Width, in.Count*in.Width
		case ICvtInt, ICvtFloat, ICall:
			dLen, sLen = in.Count*in.DstW, in.Count*in.SrcW
		}
		if in.Dst < dEnd || in.Op != IZero && in.Src < sEnd {
			return false
		}
		dEnd = in.Dst + dLen
		if in.Op != IZero { // IZero has no source
			sEnd = in.Src + sLen
		}
	}
	return true
}
