package convert

import (
	"fmt"
	"math"
)

// Interp is the table-driven interpreted converter: it walks the plan's op
// table for every record, dispatching on kind, size and order per element.
// This deliberately mirrors how MPICH's unpack and the pre-DCG PBIO
// implementation work ("what amounts to a table-driven interpreter",
// §4.3): generality is bought with per-element control overhead, which is
// exactly the overhead the paper's dynamic code generation removes.
type Interp struct {
	plan *Plan
}

// NewInterp returns an interpreted executor for the plan.
func NewInterp(p *Plan) *Interp { return &Interp{plan: p} }

// Plan returns the underlying plan.
func (it *Interp) Plan() *Plan { return it.plan }

// Convert translates one wire record in src into the receiver's native
// layout in dst.  dst must be at least Native.Size bytes and src at least
// Wire.Size bytes.  dst and src may alias the same buffer only when
// plan.InPlace is true.
func (it *Interp) Convert(dst, src []byte) error {
	p := it.plan
	if len(src) < p.Wire.Size {
		return fmt.Errorf("convert: source %d bytes, wire format needs %d", len(src), p.Wire.Size)
	}
	if len(dst) < p.Native.Size {
		return fmt.Errorf("convert: destination %d bytes, native format needs %d", len(dst), p.Native.Size)
	}
	if p.NoOp {
		if &dst[0] != &src[0] {
			copy(dst[:p.Native.Size], src[:p.Wire.Size])
		}
		return nil
	}
	return runOps(p, dst, src)
}

// runOps executes the plan's op table; buffers have been size-checked.
func runOps(p *Plan, dst, src []byte) error {
	for i := range p.Ops {
		o := &p.Ops[i]
		switch o.Kind {
		case OpStruct:
			for e := 0; e < o.Count; e++ {
				d := dst[o.DstOff+e*o.DstSize : o.DstOff+(e+1)*o.DstSize]
				s := src[o.SrcOff+e*o.SrcSize : o.SrcOff+(e+1)*o.SrcSize]
				if err := runOps(o.Sub, d, s); err != nil {
					return err
				}
			}
		case OpCopy:
			n := o.SrcSize * o.Count
			copy(dst[o.DstOff:o.DstOff+n], src[o.SrcOff:o.SrcOff+n])
		case OpSwap:
			for e := 0; e < o.Count; e++ {
				s := src[o.SrcOff+e*o.SrcSize:]
				d := dst[o.DstOff+e*o.DstSize:]
				// Read fully, then write: required for in-place runs.
				v := o.SrcOrder.Uint(s, o.SrcSize)
				o.DstOrder.PutUint(d, o.DstSize, v)
			}
		case OpIntCvt:
			for e := 0; e < o.Count; e++ {
				s := src[o.SrcOff+e*o.SrcSize:]
				d := dst[o.DstOff+e*o.DstSize:]
				if o.Signed {
					v := o.SrcOrder.Int(s, o.SrcSize)
					o.DstOrder.PutInt(d, o.DstSize, v)
				} else {
					v := o.SrcOrder.Uint(s, o.SrcSize)
					o.DstOrder.PutUint(d, o.DstSize, v)
				}
			}
		case OpFloatCvt:
			for e := 0; e < o.Count; e++ {
				s := src[o.SrcOff+e*o.SrcSize:]
				d := dst[o.DstOff+e*o.DstSize:]
				var v float64
				if o.SrcSize == 4 {
					v = float64(math.Float32frombits(o.SrcOrder.Uint32(s)))
				} else {
					v = math.Float64frombits(o.SrcOrder.Uint64(s))
				}
				if o.DstSize == 4 {
					o.DstOrder.PutUint32(d, math.Float32bits(float32(v)))
				} else {
					o.DstOrder.PutUint64(d, math.Float64bits(v))
				}
			}
		case OpZero:
			// Whole field is tail; fallthrough to tail zeroing below.
		default:
			return fmt.Errorf("convert: unknown op kind %v", o.Kind)
		}
		if o.TailZero > 0 {
			start := o.DstOff + o.DstSize*o.Count
			if o.Kind == OpZero {
				start = o.DstOff
			}
			zero(dst[start : start+o.TailZero])
		}
	}
	return nil
}

// zero clears b (the compiler recognizes this loop as a memclr).
func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
