package dcg

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/convert"
)

// Program is a compiled conversion routine: the run-time-generated
// counterpart of the interpreted converter.  It is one list of kernels,
// each sweeping one fused op over all n records of a contiguous
// fixed-stride batch, so plan lookup, program fetch and bounds checks
// happen once per call and byte-swap runs execute word- or block-at-a-
// time; a single record (Convert) is the n=1 case of the same list.  A
// Program is immutable and safe for concurrent use.
type Program struct {
	plan    *convert.Plan
	ops     []BatchOp // fused instruction stream (for inspection)
	kernels []kernel

	srcStride int  // wire record size
	dstStride int  // native record size
	bulk      bool // layout-identical: the whole batch is one copy, no kernels
}

// BatchProgram and CompileBatch are the names benchmark/probes.go still
// imports; remove them with the next benchmark PR.
type BatchProgram = Program

func CompileBatch(p *convert.Plan) (*BatchProgram, error) { return Compile(p) }

// Compile plans, emits, optimizes, fuses and lowers a conversion program
// for the given plan.  This is the "one-time cost of generating binary
// code" the paper amortizes across records.
func Compile(p *convert.Plan) (*Program, error) {
	return compile(p, true)
}

// CompileUnoptimized is Compile without the peephole pass.  It exists
// for the coalescing ablation benchmark; use Compile everywhere else.
func CompileUnoptimized(p *convert.Plan) (*Program, error) {
	return compile(p, false)
}

func compile(p *convert.Plan, optimize bool) (*Program, error) {
	prog := &Program{plan: p, srcStride: p.Wire.Size, dstStride: p.Native.Size}
	if p.NoOp {
		prog.bulk = true
		prog.ops = []BatchOp{{Kind: BBulkCopy}}
		return prog, nil
	}
	code, err := Emit(p)
	if err != nil {
		return nil, err
	}
	if optimize {
		code = Optimize(code)
	}
	prog.ops = FuseBatch(code, min(prog.dstStride, prog.srcStride))
	if prog.kernels, err = lowerAll(prog.ops, prog.dstStride, prog.srcStride); err != nil {
		return nil, err
	}
	return prog, nil
}

// lowerAll lowers a fused op list for the given record strides.
func lowerAll(ops []BatchOp, ds, ss int) ([]kernel, error) {
	kernels := make([]kernel, 0, len(ops))
	for i := range ops {
		k, err := lowerBatch(&ops[i], ds, ss)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}

// Plan returns the plan the program was compiled from.
func (p *Program) Plan() *convert.Plan { return p.plan }

// Ops returns the fused instruction stream that executes (for tests,
// dumps and the ablation benchmarks).
func (p *Program) Ops() []BatchOp { return p.ops }

// Stats summarizes the compiled shape for telemetry: the number of batch
// run ops, the 64-bit word operations per record fused out of swap runs,
// and the ops that fell back to per-record steps (converts, nested
// subroutine calls).
func (p *Program) Stats() (runs, fusedWords, stepFallbacks int) {
	for i := range p.ops {
		switch op := &p.ops[i]; op.Kind {
		case BStep:
			stepFallbacks++
		case BSwapWide:
			fusedWords += op.Words
		case BShuf:
			fusedWords += len(op.Masks) / 8
		}
	}
	return len(p.ops), fusedWords, stepFallbacks
}

// Convert runs the compiled routine on one record: the wire record in
// src is converted into the receiver's native layout in dst.  dst and
// src may be the same buffer only when the plan is in-place safe.
//
//pbio:hotpath noalloc=0 per-record decode; pinned by pbio/alloc_test.go TestAllocsDCGDecode
func (p *Program) Convert(dst, src []byte) error {
	if len(src) < p.srcStride {
		return fmt.Errorf("dcg: source %d bytes, wire format needs %d", len(src), p.srcStride)
	}
	if len(dst) < p.dstStride {
		return fmt.Errorf("dcg: destination %d bytes, native format needs %d", len(dst), p.dstStride)
	}
	p.run(dst, src, 1)
	return nil
}

// ConvertBatch converts every record of a contiguous fixed-stride batch:
// src holds n wire records back to back, dst receives n native records
// back to back.  n is derived from len(src), which must be a positive
// multiple of the wire record size — trailing partial input is rejected,
// matching the transport's batch-frame validation.  dst and src must not
// overlap.  It returns the number of records converted.
//
//pbio:hotpath noalloc=0 batch decode path; pinned by pbio/alloc_test.go TestAllocsBatchDecode
func (p *Program) ConvertBatch(dst, src []byte) (int, error) {
	ss, ds := p.srcStride, p.dstStride
	if len(src) == 0 || len(src)%ss != 0 {
		return 0, fmt.Errorf("dcg: batch source %d bytes is not a positive multiple of wire record size %d", len(src), ss)
	}
	n := len(src) / ss
	if len(dst) < n*ds {
		return 0, fmt.Errorf("dcg: batch destination %d bytes, %d records of %d bytes need %d", len(dst), n, ds, n*ds)
	}
	p.run(dst, src, n)
	return n, nil
}

// run sweeps the kernels over n size-checked records.  Layout-identical
// records need none: nothing to do in place (the receive buffer already
// is the native record), one copy otherwise.
func (p *Program) run(dst, src []byte, n int) {
	if p.bulk {
		if &dst[0] != &src[0] {
			copy(dst[:n*p.dstStride], src[:n*p.srcStride])
		}
		return
	}
	for _, k := range p.kernels {
		k(dst, src, n)
	}
}

// step is one per-record compiled conversion step — what a BStep kernel
// runs once per record.  dst and src are whole record buffers; all
// offsets are baked into the closure.
type step func(dst, src []byte)

// lower compiles one instruction that has no batch run form — an
// integer or float convert, or a nested-structure call — into a
// specialized per-record closure.
func lower(in *Instr) (step, error) {
	switch in.Op {
	case ICvtInt:
		return lowerCvtInt(in)

	case ICvtFloat:
		return lowerCvtFloat(in)

	case ICall:
		// A counted call is a batch of its own: Count elements at the
		// element strides.  Compile the body once through the same
		// fusion and kernels as a top-level program; the step re-bases
		// the buffers and sweeps each kernel over the elements.
		kernels, err := lowerAll(FuseBatch(in.Sub, min(in.DstW, in.SrcW)), in.DstW, in.SrcW)
		if err != nil {
			return nil, err
		}
		d, s, n := in.Dst, in.Src, in.Count
		return func(dst, src []byte) {
			db, sb := dst[d:], src[s:]
			for _, k := range kernels {
				k(db, sb, n)
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: cannot lower %v", in.Op)
}

// load and store function types used by the generic convert fallbacks.
type loadFn func([]byte) uint64
type storeFn func([]byte, uint64)

func loader(width int, big bool, signed bool) (loadFn, error) {
	switch {
	case width == 1 && signed:
		return func(b []byte) uint64 { return uint64(int64(int8(b[0]))) }, nil
	case width == 1:
		return func(b []byte) uint64 { return uint64(b[0]) }, nil
	case width == 2 && big && signed:
		return func(b []byte) uint64 { return uint64(int64(int16(binary.BigEndian.Uint16(b)))) }, nil
	case width == 2 && big:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint16(b)) }, nil
	case width == 2 && signed:
		return func(b []byte) uint64 { return uint64(int64(int16(binary.LittleEndian.Uint16(b)))) }, nil
	case width == 2:
		return func(b []byte) uint64 { return uint64(binary.LittleEndian.Uint16(b)) }, nil
	case width == 4 && big && signed:
		return func(b []byte) uint64 { return uint64(int64(int32(binary.BigEndian.Uint32(b)))) }, nil
	case width == 4 && big:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint32(b)) }, nil
	case width == 4 && signed:
		return func(b []byte) uint64 { return uint64(int64(int32(binary.LittleEndian.Uint32(b)))) }, nil
	case width == 4:
		return func(b []byte) uint64 { return uint64(binary.LittleEndian.Uint32(b)) }, nil
	case width == 8 && big:
		return func(b []byte) uint64 { return binary.BigEndian.Uint64(b) }, nil
	case width == 8:
		return func(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }, nil
	}
	return nil, fmt.Errorf("dcg: integer load width %d", width)
}

func storer(width int, big bool) (storeFn, error) {
	switch {
	case width == 1:
		return func(b []byte, v uint64) { b[0] = byte(v) }, nil
	case width == 2 && big:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint16(b, uint16(v)) }, nil
	case width == 2:
		return func(b []byte, v uint64) { binary.LittleEndian.PutUint16(b, uint16(v)) }, nil
	case width == 4 && big:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint32(b, uint32(v)) }, nil
	case width == 4:
		return func(b []byte, v uint64) { binary.LittleEndian.PutUint32(b, uint32(v)) }, nil
	case width == 8 && big:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }, nil
	case width == 8:
		return func(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }, nil
	}
	return nil, fmt.Errorf("dcg: integer store width %d", width)
}

// lowerCvtInt produces an integer size/order conversion loop.  The common
// ILP32↔LP64 cases (4↔8) are emitted as fully specialized loops; other
// width pairs fall back to a load/store composition chosen once at
// compile time.
func lowerCvtInt(in *Instr) (step, error) {
	d, s, n := in.Dst, in.Src, in.Count
	sw, dw := in.SrcW, in.DstW

	// Fully specialized hot paths: 4 -> 8 and 8 -> 4.
	switch {
	case sw == 4 && dw == 8 && in.Signed && in.SrcBig && !in.DstBig:
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				v := int64(int32(binary.BigEndian.Uint32(src[s+4*i:])))
				binary.LittleEndian.PutUint64(dst[d+8*i:], uint64(v))
			}
		}, nil
	case sw == 4 && dw == 8 && in.Signed && !in.SrcBig && in.DstBig:
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				v := int64(int32(binary.LittleEndian.Uint32(src[s+4*i:])))
				binary.BigEndian.PutUint64(dst[d+8*i:], uint64(v))
			}
		}, nil
	case sw == 8 && dw == 4 && in.SrcBig && !in.DstBig:
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				v := binary.BigEndian.Uint64(src[s+8*i:])
				binary.LittleEndian.PutUint32(dst[d+4*i:], uint32(v))
			}
		}, nil
	case sw == 8 && dw == 4 && !in.SrcBig && in.DstBig:
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				v := binary.LittleEndian.Uint64(src[s+8*i:])
				binary.BigEndian.PutUint32(dst[d+4*i:], uint32(v))
			}
		}, nil
	}

	ld, err := loader(sw, in.SrcBig, in.Signed)
	if err != nil {
		return nil, err
	}
	st, err := storer(dw, in.DstBig)
	if err != nil {
		return nil, err
	}
	return func(dst, src []byte) {
		for i := 0; i < n; i++ {
			st(dst[d+dw*i:], ld(src[s+sw*i:]))
		}
	}, nil
}

// lowerCvtFloat produces a float width conversion loop (4 ↔ 8 bytes).
func lowerCvtFloat(in *Instr) (step, error) {
	d, s, n := in.Dst, in.Src, in.Count
	switch {
	case in.SrcW == 4 && in.DstW == 8:
		ld, err := loader(4, in.SrcBig, false)
		if err != nil {
			return nil, err
		}
		st, err := storer(8, in.DstBig)
		if err != nil {
			return nil, err
		}
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				f := float64(math.Float32frombits(uint32(ld(src[s+4*i:]))))
				st(dst[d+8*i:], math.Float64bits(f))
			}
		}, nil
	case in.SrcW == 8 && in.DstW == 4:
		ld, err := loader(8, in.SrcBig, false)
		if err != nil {
			return nil, err
		}
		st, err := storer(4, in.DstBig)
		if err != nil {
			return nil, err
		}
		return func(dst, src []byte) {
			for i := 0; i < n; i++ {
				f := float32(math.Float64frombits(ld(src[s+8*i:])))
				st(dst[d+4*i:], uint64(math.Float32bits(f)))
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: float convert %d -> %d", in.SrcW, in.DstW)
}
