package wire

import "encoding/binary"

// Big-endian ("network order") byte helpers.
//
// Everything in this module that puts multi-byte integers on a wire —
// frame headers, meta blocks, format-server RPCs, the XDR and typemap
// baselines — does so in network order through these helpers.  They are
// the single sanctioned home for byte-order arithmetic outside the
// layout layers themselves (internal/abi, which models foreign
// architectures, and internal/dcg, whose generated converters are the
// product): the endiancheck analyzer in internal/analysis enforces
// exactly that.  The delegation to encoding/binary keeps the compiler's
// load/store intrinsics, so these compile to single moves on the hot
// paths.

// BeUint16 reads a big-endian uint16 from the first 2 bytes of b.
func BeUint16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }

// BeUint32 reads a big-endian uint32 from the first 4 bytes of b.
func BeUint32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// BeUint64 reads a big-endian uint64 from the first 8 bytes of b.
func BeUint64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// PutBeUint16 writes v big-endian into the first 2 bytes of b.
func PutBeUint16(b []byte, v uint16) { binary.BigEndian.PutUint16(b, v) }

// PutBeUint32 writes v big-endian into the first 4 bytes of b.
func PutBeUint32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }

// PutBeUint64 writes v big-endian into the first 8 bytes of b.
func PutBeUint64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

// AppendBeUint16 appends v big-endian to dst.
func AppendBeUint16(dst []byte, v uint16) []byte {
	return binary.BigEndian.AppendUint16(dst, v)
}

// AppendBeUint32 appends v big-endian to dst.
func AppendBeUint32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}
