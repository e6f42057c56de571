//go:build amd64

package dcg

// SIMD fast path for the wide swap kernels: a PSHUFB byte shuffle
// reverses every element of a 16-byte block in one instruction, so a
// swap run moves at load/shuffle/store speed instead of one BSWAP per
// element.  SSSE3 is probed once at init; without it (or off amd64)
// swapBlock returns 0 and the scalar word loops do all the work, so the
// kernels are correct everywhere and fast where it matters.

// shufRev8/4/2 are PSHUFB control masks reversing the bytes of each
// 8-, 4- or 2-byte element of a 16-byte block.
var (
	shufRev8 = [16]byte{7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8}
	shufRev4 = [16]byte{3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12}
	shufRev2 = [16]byte{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14}
)

var useSwapAsm = cpuHasSSSE3()

// cpuHasSSSE3 reports whether the CPU supports PSHUFB (CPUID.1:ECX.SSSE3).
func cpuHasSSSE3() bool

// swapPSHUFB byte-reverses elements across n bytes (n > 0, n%16 == 0)
// from src to dst using the given 16-byte shuffle mask.  Blocks are
// loaded before they are stored and the sweep runs forward, so dst may
// equal src or lie below it (in-place conversion); dst must not overlap
// src from above.
//
//go:noescape
func swapPSHUFB(dst, src *byte, n int, mask *byte)

// shufBlocks shuffles n 16-byte blocks from src to dst, each through
// its own control mask from masks (n blocks of 16 control bytes).  The
// aliasing rule is swapPSHUFB's; n must be positive.
//
//go:noescape
func shufBlocks(dst, src, masks *byte, n int)

// swapBlock converts the longest 16-byte-aligned prefix of a swap run
// with the SIMD shuffle and returns how many bytes it handled; the
// caller finishes the tail with the scalar loop.  len(sb) must be a
// multiple of width and db at least as long.
func swapBlock(width int, db, sb []byte) int {
	blk := len(sb) &^ 15
	if !useSwapAsm || blk == 0 {
		return 0
	}
	var mask *byte
	switch width {
	case 8:
		mask = &shufRev8[0]
	case 4:
		mask = &shufRev4[0]
	case 2:
		mask = &shufRev2[0]
	default:
		return 0
	}
	swapPSHUFB(&db[0], &sb[0], blk, mask)
	return blk
}
