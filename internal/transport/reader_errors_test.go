package transport

import (
	"bytes"
	"errors"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"repro/internal/abi"
	"repro/internal/native"
	"repro/internal/wire"
)

// rawFrame hand-builds one frame with an arbitrary (possibly lying)
// length field.
func rawFrame(kind byte, id uint32, claimed int, payload []byte) []byte {
	out := make([]byte, frameHeaderSize+len(payload))
	putHeader(out, kind, id, claimed)
	copy(out[frameHeaderSize:], payload)
	return out
}

// validStream returns a well-formed meta+data stream for the mixed
// format, plus the format itself.
func validStream(t *testing.T) ([]byte, *wire.Format) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f := wire.MustLayout(mixedSchema(), &abi.SparcV8)
	rec := native.New(f)
	native.FillDeterministic(rec, 7)
	if err := w.WriteRecord(f, rec.Buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), f
}

func TestReadMessageErrorTaxonomy(t *testing.T) {
	valid, f := validStream(t)
	meta := wire.AppendMeta(nil, f)

	// A checksummed data frame whose CRC does not match its body.
	badCRC := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetChecksums(true)
		rec := native.New(f)
		if err := w.WriteRecord(f, rec.Buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		b[len(b)-1] ^= 0xFF // flip a record byte; CRC prefix now lies
		return b
	}()

	cases := []struct {
		name   string
		stream []byte
		want   error
	}{
		{
			"bad magic",
			append([]byte{'X', 'X'}, valid[2:]...),
			ErrCorruptFrame,
		},
		{
			"oversize payload",
			rawFrame(FrameData, 1, maxPayload+1, nil),
			ErrCorruptFrame,
		},
		{
			"oversize meta payload",
			rawFrame(FrameMeta, 1, maxMetaPayload+1, nil),
			ErrCorruptFrame,
		},
		{
			"unknown frame kind",
			rawFrame(9, 1, 0, nil),
			ErrProtocol,
		},
		{
			"data before meta",
			rawFrame(FrameData, 1, f.Size, make([]byte, f.Size)),
			ErrProtocol,
		},
		{
			"meta ref without resolver",
			rawFrame(FrameMetaRef, 1, 8, make([]byte, 8)),
			ErrProtocol,
		},
		{
			"undecodable meta",
			rawFrame(FrameMeta, 1, 6, []byte("<junk>")),
			ErrCorruptFrame,
		},
		{
			"size-mismatched record",
			append(append([]byte{}, rawFrame(FrameMeta, 1, len(meta), meta)...),
				rawFrame(FrameData, 1, f.Size-1, make([]byte, f.Size-1))...),
			ErrCorruptFrame,
		},
		{
			"checksum mismatch",
			badCRC,
			ErrCorruptFrame,
		},
		{
			"EOF inside header",
			valid[:5],
			ErrPeerGone,
		},
		{
			"EOF inside payload",
			valid[:len(valid)-3],
			ErrPeerGone,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(c.stream))
			var err error
			for err == nil {
				_, err = r.ReadMessage()
			}
			if !errors.Is(err, c.want) {
				t.Errorf("got %v, want errors.Is(err, %v)", err, c.want)
			}
		})
	}
}

func TestReadMessageShortMetaRef(t *testing.T) {
	// With a resolver configured, a meta reference that is not exactly
	// 8 bytes is corruption, not a protocol mismatch.
	r := NewReader(bytes.NewReader(rawFrame(FrameMetaRef, 1, 4, make([]byte, 4))))
	r.SetResolver(func(uint64) (*wire.Format, error) { return nil, errors.New("nope") })
	if _, err := r.ReadMessage(); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("short meta ref: got %v, want ErrCorruptFrame", err)
	}
}

func TestReadMessageResolverFailure(t *testing.T) {
	r := NewReader(bytes.NewReader(rawFrame(FrameMetaRef, 1, 8, make([]byte, 8))))
	r.SetResolver(func(uint64) (*wire.Format, error) { return nil, errors.New("server down") })
	if _, err := r.ReadMessage(); !errors.Is(err, ErrFormatUnknown) {
		t.Errorf("resolver failure: got %v, want ErrFormatUnknown", err)
	}
}

func TestReadFrameTypedErrors(t *testing.T) {
	if _, err := NewFrameReader(bytes.NewReader([]byte{'X', 'X', 0, 0, 0, 0, 0, 0, 0, 0, 0})).Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("bad magic: got %v, want ErrCorruptFrame", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(rawFrame(FrameData, 1, 100, nil))).Next(); !errors.Is(err, ErrPeerGone) {
		t.Errorf("truncated payload: got %v, want ErrPeerGone", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(rawFrame(FrameMeta, 1, maxMetaPayload+1, nil))).Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("oversize meta: got %v, want ErrCorruptFrame", err)
	}
}

func TestFrameBodyChecksum(t *testing.T) {
	body := []byte("record bytes")
	sum := crc32.Checksum(body, crcTable)
	payload := append([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}, body...)

	fr := Frame{Kind: FrameData | FrameFlagSum, Payload: payload}
	got, err := fr.Body()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("Body() = %q, %v", got, err)
	}
	if fr.BaseKind() != FrameData || !fr.Checksummed() {
		t.Errorf("kind accessors: base %d, summed %v", fr.BaseKind(), fr.Checksummed())
	}

	payload[7] ^= 1
	if _, err := fr.Body(); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("corrupted body: got %v, want ErrCorruptFrame", err)
	}

	short := Frame{Kind: FrameData | FrameFlagSum, Payload: []byte{1, 2}}
	if _, err := short.Body(); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("short checksummed payload: got %v, want ErrCorruptFrame", err)
	}
}

func TestReaderTimeoutUnblocksDeadPeer(t *testing.T) {
	// A peer that connects and then never sends: without a timeout the
	// read would hang forever; with one it must surface an error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(5 * time.Second) // hold the connection open, silent
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	r := NewReader(conn)
	r.SetTimeout(200 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := r.ReadMessage()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read from a silent peer succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Error("ReadMessage did not time out")
	}
}
