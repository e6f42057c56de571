package transport

import (
	"bufio"
	"errors"
	"hash/crc32"
	"time"
)

// Typed protocol errors.  Every error returned by FrameReader.Next, ReadMessage,
// and WriteRecord wraps exactly one of these sentinels (or is io.EOF at a
// clean frame boundary), so callers can distinguish failure classes with
// errors.Is and react differently: a corrupt frame may be survivable by
// resynchronizing the stream, a gone peer is terminal for the connection,
// and a protocol violation indicates a misbehaving (or mismatched) peer.
var (
	// ErrCorruptFrame marks damaged bytes: bad magic, out-of-range or
	// mismatched lengths, or a failed payload checksum.
	ErrCorruptFrame = errors.New("transport: corrupt frame")

	// ErrPeerGone marks connection-level failures: truncation mid-frame,
	// read/write errors, and deadline expiry.
	ErrPeerGone = errors.New("transport: peer gone")

	// ErrProtocol marks well-formed frames that violate the protocol:
	// unknown frame kinds, data before meta, or a format-server stream
	// read without a resolver.
	ErrProtocol = errors.New("transport: protocol violation")

	// ErrFormatUnknown marks a format-server resolution failure: the
	// stream references a global format ID the resolver cannot supply.
	ErrFormatUnknown = errors.New("transport: unknown format")
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// architectures this repo benchmarks on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readDeadliner/writeDeadliner are the subsets of net.Conn the transport
// uses to bound blocking I/O.  Plain io.Readers/Writers (bytes.Buffer,
// files) simply don't implement them and are never deadline-bounded.
type readDeadliner interface{ SetReadDeadline(t time.Time) error }
type writeDeadliner interface{ SetWriteDeadline(t time.Time) error }

// Resync discards bytes from br until the two-byte frame magic is next in
// the stream, scanning at most max bytes.  It returns the number of bytes
// skipped.  Relays use it to survive a corrupt frame from one producer
// without dropping the connection: skip garbage, re-align on the next
// frame boundary, continue.  An error (including io.EOF) means alignment
// was not found within the window.
func Resync(br *bufio.Reader, max int) (skipped int, err error) {
	for skipped <= max {
		b, err := br.Peek(2)
		if err != nil {
			return skipped, err
		}
		if hasMagic(b) {
			return skipped, nil
		}
		if _, err := br.Discard(1); err != nil {
			return skipped, err
		}
		skipped++
	}
	return skipped, errResyncWindow
}

var errResyncWindow = errors.New("transport: no frame boundary found in resync window")
