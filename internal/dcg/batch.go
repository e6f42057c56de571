package dcg

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// kernel executes one batch run op over all n records of a batch.  dst
// and src are whole batch buffers; record strides and intra-record
// offsets are baked into the closure.
type kernel func(dst, src []byte, n int)

// shufAvailable reports whether shuffle ops (BShuf) can run on this
// machine.  Without the SIMD shuffle unit the word-wide kernels are
// faster than emulating a byte permutation, so none are built.
func shufAvailable() bool { return useSwapAsm }

// shufMaxRun is the longest in-place swap or move run, in bytes, that is
// folded into a shuffle region.  A longer run gains nothing from
// per-record masks — swapBlock and copy already move 16 bytes per
// instruction with no table — and keeping it out bounds every mask
// table, and with it compile time, by the number of ops rather than the
// record size.
const shufMaxRun = 8 * 16

// shufCandidate reports whether the permutation can express in, and how
// many bytes it covers: a short in-place move or swap, starting in
// [lo, hi), whose elements each sit inside one 16-byte block (so every
// lane references a source byte PSHUFB can reach).
func shufCandidate(in *Instr, lo, hi int) (ln int, ok bool) {
	if in.Dst != in.Src || in.Dst < lo || in.Dst >= hi {
		return 0, false
	}
	switch w := in.Width; in.Op {
	case IMovBlk:
		return in.Len, in.Len <= shufMaxRun
	case ISwap:
		return in.Count * w, (w == 2 || w == 4 || w == 8) && in.Dst%w == 0 && in.Count*w <= shufMaxRun
	}
	return 0, false
}

// buildShuffles folds every cluster of short in-place ops into one
// byte-permutation op: a PSHUFB control mask per 16-byte block, where
// swaps become reversal lanes and everything else — in-place moves,
// padding, bytes other ops own — identity lanes.  One shuffle instruction
// then converts 16 bytes regardless of how many fields the block spans:
// no per-op dispatch, no element loop.  A cluster takes in candidates as
// the plan lists them for as long as they cover at least half of the
// blocks it spans (a shuffle pass only pays for itself when it retires
// most of its region), and must hold at least two of them, one a swap: a
// lone run is served as well by its own kernel, and move-only programs
// keep the copy form.  Ops the permutation cannot express — shifted
// moves from resize plans, converts, zero-fills, nested calls, long
// runs, anything past the last full block below size — come back in
// rest.
//
// Regions ascend and are disjoint: only ops at or above the end of the
// last region built (floor) are candidates, whatever order the plan
// lists them in, so no byte is shuffled twice and an op below floor
// simply keeps its own kernel.
//
// Shuffles run before rest, which is what makes one kernel list serve
// both separate and aliased buffers.  Subsumed ops have Dst == Src and
// the source ranges of distinct ops are disjoint, so in place a shuffle
// rewrites only bytes its own ops own, and doing that ahead of plan
// order cannot disturb the source of any other op; separately, its
// identity lanes put source bytes where later ops or padding live, and
// the ops in rest overwrite the former.  IZero is never subsumed: in
// place, zeroing ahead of plan order could destroy a source that an
// earlier op has yet to read.
func buildShuffles(code []Instr, size int) (shufs []BatchOp, rest []Instr) {
	limit := size &^ 15
	if !shufAvailable() || limit == 0 {
		return nil, code
	}
	floor := 0
	for i := 0; i < len(code); {
		// The cluster is code[i:j], its region the blocks [off, end).  It
		// starts at a candidate and ends before the first one that would
		// leave more than half of the region uncovered.
		j, off, end, covered, members, swaps := i, limit, floor, 0, 0, 0
		for ; j < len(code); j++ {
			in := &code[j]
			ln, ok := shufCandidate(in, floor, limit)
			if !ok {
				if members == 0 {
					break
				}
				continue
			}
			o, e := min(off, in.Dst&^15), max(end, (in.Dst+ln+15)&^15)
			if members > 0 && 2*(covered+ln) < e-o {
				break
			}
			off, end, covered, members = o, e, covered+ln, members+1
			if in.Op == ISwap {
				swaps++
			}
		}
		if members < 2 || swaps == 0 {
			j = max(j, i+1)
			if shufs != nil {
				rest = append(rest, code[i:j]...)
			}
			i = j
			continue
		}
		if shufs == nil {
			// Most programs have no cluster and return code itself; the
			// first shuffle pays for the copy of what precedes it.
			rest = append(make([]Instr, 0, len(code)), code[:i]...)
		}
		end = min(end, limit)
		masks := make([]byte, end-off)
		for b := range masks {
			masks[b] = byte(b & 15)
		}
		for _, in := range code[i:j] {
			if _, ok := shufCandidate(&in, floor, limit); !ok {
				rest = append(rest, in)
				continue
			}
			w, cnt := 1, in.Len
			if in.Op == ISwap {
				w, cnt = in.Width, in.Count
			}
			// The part below end becomes lanes; the tail of an op cut by
			// the record's last full block stays a regular instruction.
			fit := min(cnt, (end-in.Dst)/w)
			for e := 0; e < fit; e++ {
				base := in.Dst + e*w - off
				for b := 0; b < w; b++ {
					masks[base+b] = byte((base + w - 1 - b) & 15)
				}
			}
			if fit < cnt {
				in.Dst, in.Src = in.Dst+fit*w, in.Src+fit*w
				if in.Op == ISwap {
					in.Count -= fit
				} else {
					in.Len -= fit
				}
				rest = append(rest, in)
			}
		}
		shufs = append(shufs, BatchOp{Kind: BShuf, In: Instr{Op: IMovBlk, Dst: off, Src: off, Len: len(masks)}, Masks: masks})
		i, floor = j, end
	}
	if shufs == nil {
		return nil, code
	}
	return shufs, rest
}

// lowerBatch compiles one batch run op into a kernel specialized with the
// record strides and intra-record offsets.
func lowerBatch(op *BatchOp, ds, ss int) (kernel, error) {
	in := &op.In
	switch op.Kind {
	case BMove:
		// An identity move is a no-op whenever the conversion runs in
		// place (PBIO's receive-buffer reuse).  This is what makes the
		// paper's §4.4 advice — append new fields at the END of evolving
		// formats — nearly free for old receivers: every expected field
		// stays at its offset.
		d, s, ln, identity := in.Dst, in.Src, in.Len, in.Dst == in.Src
		return func(dst, src []byte, n int) {
			if identity && &dst[0] == &src[0] {
				return
			}
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				copy(dst[do:do+ln], src[so:so+ln])
			}
		}, nil

	case BZero:
		d, ln := in.Dst, in.Len
		return func(dst, src []byte, n int) {
			for do := 0; n > 0; n, do = n-1, do+ds {
				b := dst[do+d : do+d+ln]
				for i := range b {
					b[i] = 0
				}
			}
		}, nil

	case BSwap:
		return lowerBatchSwap(in, ds, ss)

	case BSwapWide:
		return lowerBatchSwapWide(op, ds, ss)

	case BShuf:
		return lowerBatchShuf(op, ds, ss)

	case BStep:
		st, err := lower(in)
		if err != nil {
			return nil, err
		}
		return func(dst, src []byte, n int) {
			for do, so := 0, 0; n > 0; n, do, so = n-1, do+ds, so+ss {
				st(dst[do:], src[so:])
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: cannot lower batch op %v", op.Kind)
}

// lowerBatchShuf compiles a shuffle region: one PSHUFB per 16-byte
// block per record, control masks shared by every record of the batch.
// This is the branchless limit of the engine — the only per-record
// control flow is the block count.  Each block is loaded whole before it
// is stored, so dst and src may be the same buffer.
func lowerBatchShuf(op *BatchOp, ds, ss int) (kernel, error) {
	masks, off := op.Masks, op.In.Dst
	if len(masks) == 0 || len(masks)%16 != 0 || off < 0 || off+len(masks) > min(ds, ss) {
		return nil, fmt.Errorf("dcg: shuffle masks %d bytes at +%d for strides %d/%d", len(masks), off, ds, ss)
	}
	m, ln, nblk := &masks[0], len(masks), len(masks)/16
	return func(dst, src []byte, n int) {
		for do, so := off, off; n > 0; n, do, so = n-1, do+ds, so+ss {
			db, sb := dst[do:do+ln], src[so:so+ln]
			shufBlocks(&db[0], &sb[0], m, nblk)
		}
	}, nil
}

// lowerBatchSwap is the residual element-at-a-time swap for runs too
// short to fill a 64-bit word (at most one width-4 or three width-2
// elements, or FuseBatch would have widened them).
func lowerBatchSwap(in *Instr, ds, ss int) (kernel, error) {
	d, s, cnt := in.Dst, in.Src, in.Count
	switch in.Width {
	case 2:
		return func(dst, src []byte, n int) {
			for do, so := 0, 0; n > 0; n, do, so = n-1, do+ds, so+ss {
				for i := 0; i < cnt; i++ {
					v := binary.LittleEndian.Uint16(src[so+s+2*i:])
					binary.LittleEndian.PutUint16(dst[do+d+2*i:], bits.ReverseBytes16(v))
				}
			}
		}, nil
	case 4:
		return func(dst, src []byte, n int) {
			for do, so := 0, 0; n > 0; n, do, so = n-1, do+ds, so+ss {
				for i := 0; i < cnt; i++ {
					v := binary.LittleEndian.Uint32(src[so+s+4*i:])
					binary.LittleEndian.PutUint32(dst[do+d+4*i:], bits.ReverseBytes32(v))
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: batch swap width %d", in.Width)
}

// swap2Mask isolates the low byte of every 16-bit lane of a 64-bit word;
// the SWAR swap shifts the two halves of each lane past each other.
const swap2Mask = 0x00ff00ff00ff00ff

// lowerBatchSwapWide compiles the word-wide swap forms.  Each run first
// goes through swapBlock — a PSHUFB shuffle covering 16 bytes per
// instruction where the CPU has it — and the scalar loops finish the
// tail (or the whole run elsewhere).  Every scalar load and store below
// is a binary.LittleEndian intrinsic — an unaligned 64-bit move on the
// machines we run on — so each word is load, reverse (one BSWAP plus at
// most a rotate or two shift-mask pairs), store.  The LittleEndian load
// + byte-reversal + LittleEndian store composition is
// direction-agnostic: reversing the bytes of each element converts
// big-endian wire data to a little-endian native layout and vice versa.
func lowerBatchSwapWide(op *BatchOp, ds, ss int) (kernel, error) {
	d, s := op.In.Dst, op.In.Src
	words, rem := op.Words, op.Rem
	switch op.In.Width {
	case 8:
		if words == 1 {
			// A single element per record — typically the tail a shuffle
			// region could not cover.  One load, reverse, store; paying a
			// swapBlock call here would cost more than the swap.
			return func(dst, src []byte, n int) {
				for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
					v := binary.LittleEndian.Uint64(src[so : so+8])
					binary.LittleEndian.PutUint64(dst[do:do+8], bits.ReverseBytes64(v))
				}
			}, nil
		}
		// One element per word: the SIMD shuffle handles whole 16-byte
		// blocks, ReverseBytes64 the tail.  The exact-length subslices let
		// the compiler drop the per-word bounds checks in the scalar loop.
		return func(dst, src []byte, n int) {
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+8*words], src[so:so+8*words]
				i := swapBlock(8, db, sb)
				for ; i+8 <= len(sb); i += 8 {
					v := binary.LittleEndian.Uint64(sb[i : i+8])
					binary.LittleEndian.PutUint64(db[i:i+8], bits.ReverseBytes64(v))
				}
			}
		}, nil
	case 4:
		// Two elements per word: ReverseBytes64 swaps every byte AND the
		// element order; rotating by 32 puts the elements back, leaving
		// each one byte-reversed in place.
		simd := 8*words >= 16 // below one block swapBlock always declines
		return func(dst, src []byte, n int) {
			ln := 8*words + 4*rem
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+ln], src[so:so+ln]
				i := 0
				if simd {
					i = swapBlock(4, db[:8*words], sb[:8*words])
				}
				for ; i+8 <= 8*words; i += 8 {
					v := bits.ReverseBytes64(binary.LittleEndian.Uint64(sb[i : i+8]))
					binary.LittleEndian.PutUint64(db[i:i+8], bits.RotateLeft64(v, 32))
				}
				if rem != 0 {
					v := binary.LittleEndian.Uint32(sb[i : i+4])
					binary.LittleEndian.PutUint32(db[i:i+4], bits.ReverseBytes32(v))
				}
			}
		}, nil
	case 2:
		// Four elements per word: a SWAR mask-and-shift reverses the two
		// bytes within each 16-bit lane without disturbing lane order.
		simd := 8*words >= 16
		return func(dst, src []byte, n int) {
			ln := 8*words + 2*rem
			for do, so := d, s; n > 0; n, do, so = n-1, do+ds, so+ss {
				db, sb := dst[do:do+ln], src[so:so+ln]
				i := 0
				if simd {
					i = swapBlock(2, db[:8*words], sb[:8*words])
				}
				for ; i+8 <= 8*words; i += 8 {
					v := binary.LittleEndian.Uint64(sb[i : i+8])
					v = (v&swap2Mask)<<8 | (v>>8)&swap2Mask
					binary.LittleEndian.PutUint64(db[i:i+8], v)
				}
				for ; i+2 <= len(sb); i += 2 {
					v := binary.LittleEndian.Uint16(sb[i : i+2])
					binary.LittleEndian.PutUint16(db[i:i+2], bits.ReverseBytes16(v))
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("dcg: batch wide swap width %d", op.In.Width)
}
