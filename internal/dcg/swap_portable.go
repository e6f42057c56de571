//go:build !amd64

package dcg

// useSwapAsm is constant off amd64: there is no SIMD implementation, so
// shuffle ops are never built and the scalar word loops in the batch
// kernels handle every run.
var useSwapAsm = false

func swapBlock(width int, db, sb []byte) int { return 0 }

// shufBlocks is unreachable off amd64 — buildShuffles is gated on
// shufAvailable.
func shufBlocks(dst, src, masks *byte, n int) {
	panic("dcg: shuffle program without SIMD support")
}
