package transport

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"repro/internal/bufpool"
	"repro/internal/wire"
)

// Frame kinds on the wire.
const (
	// FrameMeta carries a meta-encoded format description.
	FrameMeta = 1
	// FrameData carries one record in the sender's native layout.
	FrameData = 2
	// FrameMetaRef carries an 8-byte global format ID (format-server
	// mode).
	FrameMetaRef = 3
	// FrameBatch carries N ≥ 1 records of one format, concatenated in the
	// sender's native layout with no per-record framing: the record count
	// is payload length ÷ format size.  Fixed-size records make the
	// division exact by construction, so batching costs zero descriptive
	// bytes — the header amortizes over the whole run, which is where the
	// per-message overhead goes for small records.
	FrameBatch = 4
	// FrameSub carries a subscription want-list (see Subscription)
	// travelling upstream on a consumer link: a consumer or downstream
	// relay telling its upstream hop which format names it wants.  The
	// format-ID field is unused.
	FrameSub = 5

	// FrameFlagSum, OR-ed into the kind byte, marks a frame whose
	// payload is prefixed by a 4-byte big-endian CRC32-C of the body.
	// The checksum covers the body only — not the header — so a relay
	// can renumber format IDs while forwarding without re-hashing, and
	// the record bytes themselves keep end-to-end integrity across hops.
	// Checksums are opt-in per writer (Writer.SetChecksums); readers
	// accept both forms transparently.
	FrameFlagSum = 0x80
)

const (
	frameMagic      = 0x5042 // "PB"
	frameHeaderSize = 2 + 1 + 4 + 4
	sumSize         = 4

	// maxPayload bounds frame payloads to guard against corrupt or
	// hostile length fields.
	maxPayload = 1 << 28

	// maxMetaPayload bounds meta and meta-reference payloads much more
	// tightly than data: a format description is small by construction,
	// so a large length field on a meta frame is corruption, not data,
	// and must not trigger a quarter-gigabyte allocation.
	maxMetaPayload = 1 << 20
)

func putHeader(hdr []byte, kind byte, id uint32, n int) {
	wire.PutBeUint16(hdr, frameMagic)
	hdr[2] = kind
	wire.PutBeUint32(hdr[3:], id)
	wire.PutBeUint32(hdr[7:], uint32(n))
}

// hasMagic reports whether b opens with the frame magic: the one place
// the magic is compared, for FrameReader.Next and Resync alike.
func hasMagic(b []byte) bool { return wire.BeUint16(b) == frameMagic }

// Frame is one raw protocol frame.  Relays and other intermediaries can
// forward frames without interpreting record contents — with NDR there is
// nothing to re-encode.
type Frame struct {
	Kind     byte
	FormatID uint32
	Payload  []byte
}

// BaseKind returns the frame kind with the checksum flag stripped.
func (f *Frame) BaseKind() byte { return f.Kind &^ FrameFlagSum }

// Checksummed reports whether the payload carries a CRC32-C prefix.
func (f *Frame) Checksummed() bool { return f.Kind&FrameFlagSum != 0 }

// Body verifies the payload checksum (when present) and returns the
// frame body with any checksum prefix stripped.  A mismatch wraps
// ErrCorruptFrame; the stream itself is still frame-aligned, so callers
// that can tolerate loss may skip the frame and continue reading.
func (f *Frame) Body() ([]byte, error) {
	if !f.Checksummed() {
		return f.Payload, nil
	}
	if len(f.Payload) < sumSize {
		return nil, fmt.Errorf("transport: checksummed payload only %d bytes: %w", len(f.Payload), ErrCorruptFrame)
	}
	want := wire.BeUint32(f.Payload)
	body := f.Payload[sumSize:]
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("transport: payload checksum %#x, want %#x: %w", got, want, ErrCorruptFrame)
	}
	return body, nil
}

// AppendSum appends body prefixed with its CRC32-C to dst and returns
// the extended slice — the payload layout of a FrameFlagSum frame.
// Passing a pooled or reused dst (sliced to zero length) makes the
// checksummed payload construction allocation-free; a nil dst allocates,
// which suits one-off payloads (a relay's meta frames).
func AppendSum(dst, body []byte) []byte {
	var crc [sumSize]byte
	wire.PutBeUint32(crc[:], crc32.Checksum(body, crcTable))
	dst = append(dst, crc[:]...)
	return append(dst, body...)
}

// FrameReader reads raw frames from a stream: the only parser of the
// frame header.  The header and the pooled payload buffer persist across
// frames, so reading allocates nothing once the buffer has grown to the
// stream's largest frame.  Not safe for concurrent use.
type FrameReader struct {
	r   io.Reader
	hdr [frameHeaderSize]byte
	buf []byte // pooled; obtained on demand, returned by Release
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame.  The payload aliases the reader's buffer and is
// valid until the next call to Next or Release.  io.EOF is returned
// untouched at a clean frame boundary; a stream that ends or fails inside
// a frame wraps ErrPeerGone, and a header that cannot be one — bad magic,
// a length beyond the bound for its kind — wraps ErrCorruptFrame, after
// which the stream is no longer frame-aligned (see Resync).
//
//pbio:hotpath noalloc=0 every incoming frame; header and payload buffer persist in the reader (TestFrameCodecAllocs)
func (fr *FrameReader) Next() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("transport: read header: %w: %w", err, ErrPeerGone)
	}
	if !hasMagic(fr.hdr[:]) {
		return Frame{}, fmt.Errorf("transport: bad frame magic %#x%02x: %w", fr.hdr[0], fr.hdr[1], ErrCorruptFrame)
	}
	f := Frame{Kind: fr.hdr[2], FormatID: wire.BeUint32(fr.hdr[3:])}
	n := int(wire.BeUint32(fr.hdr[7:]))
	if n < 0 || n > maxPayload {
		return Frame{}, fmt.Errorf("transport: frame payload %d out of range: %w", n, ErrCorruptFrame)
	}
	if k := f.BaseKind(); (k == FrameMeta || k == FrameMetaRef || k == FrameSub) && n > maxMetaPayload {
		return Frame{}, fmt.Errorf("transport: meta payload %d exceeds bound %d: %w", n, maxMetaPayload, ErrCorruptFrame)
	}
	if cap(fr.buf) < n {
		bufpool.Put(fr.buf)
		fr.buf = bufpool.Get(n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return Frame{}, fmt.Errorf("transport: read payload: %w: %w", err, ErrPeerGone)
	}
	f.Payload = fr.buf
	return f, nil
}

// Release returns the payload buffer to the pool.  Every payload Next
// handed out is invalid afterwards; a later Next takes a fresh buffer.
func (fr *FrameReader) Release() {
	bufpool.Put(fr.buf)
	fr.buf = nil
}

// FrameWriter writes raw frames to a stream: the only builder of the
// frame header.  Header and payload go out as one vectored write (one
// writev syscall on a net.Conn), as PBIO did — the sender never copies a
// record to build a contiguous message.  Not safe for concurrent use.
type FrameWriter struct {
	w   io.Writer
	hdr [frameHeaderSize]byte
	sum [sumSize]byte // checksum prefix; must outlive the vectored write

	// vec is the persistent iovec and nb the net.Buffers header WriteTo
	// consumes.  WriteTo takes its receiver by pointer, so a local
	// net.Buffers would escape (one allocation per frame); nb lives here,
	// is re-pointed at vec's backing each frame, and advances harmlessly
	// as the write drains — Write rebuilds both from scratch.
	vec [][]byte
	nb  net.Buffers
}

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Write sends one frame whose payload is parts, back to back, and returns
// the bytes written, header included.  With sum set the payload is
// prefixed by the CRC32-C of parts and the kind gains FrameFlagSum; a
// payload that already carries its prefix (a relay forwarding a
// checksummed frame) goes out with sum clear and the flag in kind.  A
// failed write wraps ErrPeerGone.
//
//pbio:hotpath noalloc=0 every outgoing frame; one writev, the iovec and header persist in the writer (TestFrameCodecAllocs)
func (fw *FrameWriter) Write(kind byte, id uint32, sum bool, parts ...[]byte) (int64, error) {
	fw.vec = append(fw.vec[:0], fw.hdr[:])
	n := 0
	if sum {
		crc := uint32(0)
		for _, p := range parts {
			crc = crc32.Update(crc, crcTable, p)
		}
		wire.PutBeUint32(fw.sum[:], crc)
		fw.vec = append(fw.vec, fw.sum[:])
		kind |= FrameFlagSum
		n = sumSize
	}
	for _, p := range parts {
		n += len(p)
	}
	fw.vec = append(fw.vec, parts...)
	putHeader(fw.hdr[:], kind, id, n)
	fw.nb = net.Buffers(fw.vec)
	written, err := fw.nb.WriteTo(fw.w)
	if err != nil {
		return written, fmt.Errorf("transport: write frame: %w: %w", err, ErrPeerGone)
	}
	return written, nil
}

// WriteSubscription writes s as one FrameSub control frame.  The frame's
// format-ID field is unused (zero); subscriptions address formats by
// name, the only identity that survives renumbering across hops.
func (fw *FrameWriter) WriteSubscription(s Subscription) error {
	payload, err := EncodeSubscription(s)
	if err != nil {
		return err
	}
	_, err = fw.Write(FrameSub, 0, false, payload)
	return err
}
