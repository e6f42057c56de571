// Package dcg is this repository's analogue of Vcode, the dynamic code
// generation system PBIO uses to turn format-conversion plans into fast
// customized routines at run time (§4.3 of the paper).
//
// The Go standard library cannot emit native machine code, so the
// pipeline is reproduced one level up: a conversion plan is lowered to a
// stream of virtual-RISC instructions (the Vcode role, Emit), a peephole
// optimizer coalesces fields into runs (Optimize), clusters of short
// in-place swaps and moves are folded into whole-block byte shuffles and
// the remaining runs widened into word-at-a-time ops (FuseBatch), and
// each resulting op is lowered to one kernel specialized with
// compile-time constants — record strides, offsets, widths — that sweeps
// all n records of a contiguous batch.  A single record is the n=1 case
// of the same kernel list, so there is one generated routine per layout
// pair however the records arrive.  What the paper measures is the gap
// between a table-driven interpreter and a once-generated specialized
// routine; that gap is exactly what this package recreates.
package dcg

import (
	"fmt"
	"strings"
)

// OpCode is a virtual-RISC conversion instruction opcode.
type OpCode uint8

const (
	// IMovBlk copies Len bytes from Src to Dst unchanged.
	IMovBlk OpCode = iota
	// ISwap copies Count elements of Width bytes from Src to Dst,
	// reversing the bytes of each element.
	ISwap
	// ICvtInt converts Count integer elements from SrcW bytes (byte
	// order SrcBig) to DstW bytes (byte order DstBig), sign-extending
	// when Signed.
	ICvtInt
	// ICvtFloat converts Count IEEE-754 elements between widths 4 and 8.
	ICvtFloat
	// IZero clears Len bytes at Dst.
	IZero
	// ICall converts Count nested-structure elements by running the Sub
	// instruction stream once per element, with source stride SrcW and
	// destination stride DstW — the generated-code equivalent of the
	// paper's "call subroutines to convert complex subtypes".
	ICall
)

var opNames = [...]string{
	IMovBlk: "movblk", ISwap: "swap", ICvtInt: "cvti",
	ICvtFloat: "cvtf", IZero: "zero", ICall: "call",
}

// String names the opcode.
func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one virtual instruction.  Field use depends on the opcode; see
// the opcode docs.
type Instr struct {
	Op         OpCode
	Dst, Src   int // byte offsets in the destination / source records
	Len        int // IMovBlk, IZero: byte length
	Count      int // element count for ISwap/ICvtInt/ICvtFloat
	Width      int // ISwap: element width
	SrcW, DstW int // ICvt*: element widths
	Signed     bool
	SrcBig     bool    // source elements are big-endian
	DstBig     bool    // destination elements are big-endian
	Sub        []Instr // ICall: the per-element subroutine body
}

// String renders the instruction in a readable assembly-like form.
func (in Instr) String() string {
	switch in.Op {
	case IMovBlk:
		return fmt.Sprintf("movblk  d+%d, s+%d, %d", in.Dst, in.Src, in.Len)
	case ISwap:
		return fmt.Sprintf("swap%d   d+%d, s+%d, x%d", in.Width, in.Dst, in.Src, in.Count)
	case ICvtInt:
		sign := "u"
		if in.Signed {
			sign = "s"
		}
		return fmt.Sprintf("cvti.%s%d.%d d+%d, s+%d, x%d", sign, in.SrcW, in.DstW, in.Dst, in.Src, in.Count)
	case ICvtFloat:
		return fmt.Sprintf("cvtf.%d.%d d+%d, s+%d, x%d", in.SrcW, in.DstW, in.Dst, in.Src, in.Count)
	case IZero:
		return fmt.Sprintf("zero    d+%d, %d", in.Dst, in.Len)
	case ICall:
		return fmt.Sprintf("call    d+%d(+%d), s+%d(+%d), x%d, %d instrs",
			in.Dst, in.DstW, in.Src, in.SrcW, in.Count, len(in.Sub))
	}
	return fmt.Sprintf("?%d", in.Op)
}

// BatchOpKind classifies one stride-aware run instruction of a compiled
// program.  A batch op executes its per-record work for every record of
// a contiguous fixed-stride run, so the dispatch cost of one op is
// amortized over the whole batch instead of paid per record.
type BatchOpKind uint8

const (
	// BBulkCopy copies the entire batch payload — n contiguous records —
	// with a single copy.  Emitted only for layout-identical plans.
	BBulkCopy BatchOpKind = iota
	// BMove copies In.Len bytes from In.Src to In.Dst in every record.
	BMove
	// BSwap byte-reverses In.Count elements of In.Width bytes per
	// record, one element at a time — the residual form for runs too
	// short to fill a 64-bit word.
	BSwap
	// BSwapWide byte-reverses In.Count elements of In.Width bytes per
	// record word-at-a-time: Words 64-bit loads per record, each
	// reversing 8/In.Width elements in place (bits.ReverseBytes64 plus a
	// rotate or SWAR correction), then Rem trailing elements singly.
	BSwapWide
	// BZero clears In.Len bytes at In.Dst in every record.
	BZero
	// BStep runs the per-record compiled step for In once per record —
	// the fallback for integer/float converts and nested-structure
	// subroutine calls, which have no word-fused form.
	BStep
	// BShuf applies a precomputed byte-permutation program to the In.Len
	// bytes at In.Dst (== In.Src) of every record: one PSHUFB control
	// mask per 16-byte block subsumes every short in-place swap and move
	// in the region — however many fields a block spans — with identity
	// lanes for the bytes between them.  Built only on CPUs with the
	// shuffle unit; shuffles run before every other op of the program.
	BShuf
)

var batchOpNames = [...]string{
	BBulkCopy: "bulkcopy", BMove: "move", BSwap: "swap",
	BSwapWide: "swapw", BZero: "zero", BStep: "step", BShuf: "shuf",
}

// String names the batch op kind.
func (k BatchOpKind) String() string {
	if int(k) < len(batchOpNames) {
		return batchOpNames[k]
	}
	return fmt.Sprintf("bop(%d)", uint8(k))
}

// BatchOp is one stride-aware run instruction of a batch program: the
// per-record instruction it was fused from plus the word-fusion shape
// chosen for it.
type BatchOp struct {
	Kind BatchOpKind
	In   Instr // the per-record instruction this run executes
	// BSwapWide only: 64-bit words processed per record and trailing
	// elements swapped singly.  Words*8/In.Width + Rem == In.Count.
	Words int
	Rem   int
	// BShuf only: one 16-byte PSHUFB control mask per block of the
	// region; each lane selects a source byte within its block.
	Masks []byte
}

// String renders the batch op in a readable assembly-like form.
func (op BatchOp) String() string {
	switch op.Kind {
	case BBulkCopy:
		return "bulkcopy *n"
	case BSwapWide:
		return fmt.Sprintf("swapw%d  d+%d, s+%d, x%d (%d words + %d tail) *n",
			op.In.Width, op.In.Dst, op.In.Src, op.In.Count, op.Words, op.Rem)
	case BStep:
		return fmt.Sprintf("step    {%s} *n", op.In.String())
	case BShuf:
		return fmt.Sprintf("shuf    d+%d, s+%d, %dB in %d blocks *n",
			op.In.Dst, op.In.Src, len(op.Masks), len(op.Masks)/16)
	case BMove, BSwap, BZero:
		return fmt.Sprintf("%-7s {%s} *n", op.Kind.String(), op.In.String())
	}
	return fmt.Sprintf("?%d", op.Kind)
}

// DisassembleBatch renders a batch instruction stream.
func DisassembleBatch(ops []BatchOp) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "%3d: %s\n", i, op.String())
		if op.Kind == BStep && op.In.Op == ICall {
			disassemble(&b, op.In.Sub, "     ")
		}
	}
	return b.String()
}

// Disassemble renders an instruction stream, indenting subroutine bodies.
func Disassemble(code []Instr) string {
	var b strings.Builder
	disassemble(&b, code, "")
	return b.String()
}

func disassemble(b *strings.Builder, code []Instr, indent string) {
	for i, in := range code {
		fmt.Fprintf(b, "%s%3d: %s\n", indent, i, in.String())
		if in.Op == ICall {
			disassemble(b, in.Sub, indent+"     ")
		}
	}
}
