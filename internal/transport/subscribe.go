// Subscription control frames.
//
// A relay mesh forwards each hop only the formats someone downstream
// wants.  The want-list travels upstream as a FrameSub control frame on
// the consumer connection — the one direction of that link that was
// previously silent — so subscribing costs no extra connection and no
// out-of-band channel.  Like everything else on the wire, the decision
// is made ahead of time: once a hop has a peer's subscription, routing a
// data frame is a map probe, never an inspection of record bytes.
package transport

import (
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Subscription is a consumer's (or downstream relay's) want-list.  The
// zero value wants nothing; All wants every format regardless of Names.
// A consumer that never sends a subscription frame is treated by relays
// as All — plain consumers predate subscriptions and must keep working.
//
// NodeID and MeshAddr are the mesh-observability handshake: a relay
// attaching below another relay announces its stable node identity and
// the HTTP address where its /debug/mesh endpoint is served, so the
// upstream hop can export its downstream links and a crawler can walk
// the tree from any hop.  Both are optional; a subscription carrying
// either is encoded as a version-2 frame (plain want-lists stay
// byte-identical version 1, so pre-mesh peers interoperate unchanged).
type Subscription struct {
	All   bool
	Names []string

	NodeID   string
	MeshAddr string
}

// Matches reports whether the subscription covers a format name.
func (s *Subscription) Matches(name string) bool {
	if s.All {
		return true
	}
	for _, n := range s.Names {
		if n == name {
			return true
		}
	}
	return false
}

// Canonical returns the subscription with Names sorted and deduplicated
// (and dropped entirely when All).  Two subscriptions with equal
// canonical encodings route identically, which is what lets a relay
// skip re-sending an unchanged union upstream.  Node identity is
// preserved verbatim: it is constant per process, so it never makes an
// otherwise-unchanged union look changed.
func (s Subscription) Canonical() Subscription {
	if s.All {
		return Subscription{All: true, NodeID: s.NodeID, MeshAddr: s.MeshAddr}
	}
	names := append([]string(nil), s.Names...)
	sort.Strings(names)
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return Subscription{Names: out, NodeID: s.NodeID, MeshAddr: s.MeshAddr}
}

// Subscription payload layout (all integers big-endian):
//
//	byte 0    version (1, or 2 when node identity follows)
//	byte 1    flags; bit 0 = All
//	uint16    name count
//	repeated  uint16 length + name bytes
//	-- version 2 only --
//	uint16    node-ID length + bytes (may be 0)
//	uint16    mesh-address length + bytes (may be 0)
//
// Bounds mirror the meta-frame philosophy: a want-list is small by
// construction, so a large length field is corruption, not data.
const (
	subVersion     = 1
	subVersionNode = 2
	subFlagAll     = 0x01
	maxSubNames    = 4096
	maxSubNameLen  = 1024
	maxNodeInfoLen = 256
	subHeaderBytes = 4
)

// AppendSubscription appends the canonical wire encoding of s to dst and
// returns the extended slice.
func AppendSubscription(dst []byte, s Subscription) ([]byte, error) {
	c := s.Canonical()
	if len(c.Names) > maxSubNames {
		return dst, fmt.Errorf("transport: subscription has %d names, bound is %d", len(c.Names), maxSubNames)
	}
	var flags byte
	if c.All {
		flags |= subFlagAll
	}
	version := byte(subVersion)
	if c.NodeID != "" || c.MeshAddr != "" {
		if len(c.NodeID) > maxNodeInfoLen || len(c.MeshAddr) > maxNodeInfoLen {
			return dst, fmt.Errorf("transport: subscription node identity %d+%d bytes, bound is %d each",
				len(c.NodeID), len(c.MeshAddr), maxNodeInfoLen)
		}
		version = subVersionNode
	}
	dst = append(dst, version, flags)
	var u16 [2]byte
	wire.PutBeUint16(u16[:], uint16(len(c.Names)))
	dst = append(dst, u16[:]...)
	for _, n := range c.Names {
		if n == "" || len(n) > maxSubNameLen {
			return dst, fmt.Errorf("transport: subscription name %d bytes, bound is [1, %d]", len(n), maxSubNameLen)
		}
		wire.PutBeUint16(u16[:], uint16(len(n)))
		dst = append(dst, u16[:]...)
		dst = append(dst, n...)
	}
	if version == subVersionNode {
		for _, v := range []string{c.NodeID, c.MeshAddr} {
			wire.PutBeUint16(u16[:], uint16(len(v)))
			dst = append(dst, u16[:]...)
			dst = append(dst, v...)
		}
	}
	return dst, nil
}

// EncodeSubscription returns the canonical wire encoding of s.
func EncodeSubscription(s Subscription) ([]byte, error) {
	return AppendSubscription(make([]byte, 0, subHeaderBytes+16*len(s.Names)), s)
}

// DecodeSubscription parses a subscription frame body.  Every decode
// failure wraps ErrCorruptFrame: a relay receiving a bad want-list skips
// it (the stream is still frame-aligned) rather than guessing.
func DecodeSubscription(body []byte) (Subscription, error) {
	if len(body) < subHeaderBytes {
		return Subscription{}, fmt.Errorf("transport: subscription body %d bytes, want >= %d: %w", len(body), subHeaderBytes, ErrCorruptFrame)
	}
	if body[0] != subVersion && body[0] != subVersionNode {
		return Subscription{}, fmt.Errorf("transport: subscription version %d, want %d or %d: %w", body[0], subVersion, subVersionNode, ErrCorruptFrame)
	}
	if body[1]&^subFlagAll != 0 {
		return Subscription{}, fmt.Errorf("transport: subscription flags %#x unknown: %w", body[1], ErrCorruptFrame)
	}
	s := Subscription{All: body[1]&subFlagAll != 0}
	count := int(wire.BeUint16(body[2:]))
	if count > maxSubNames {
		return Subscription{}, fmt.Errorf("transport: subscription declares %d names, bound is %d: %w", count, maxSubNames, ErrCorruptFrame)
	}
	rest := body[subHeaderBytes:]
	if count > 0 {
		s.Names = make([]string, 0, count)
	}
	for i := 0; i < count; i++ {
		if len(rest) < 2 {
			return Subscription{}, fmt.Errorf("transport: subscription truncated at name %d: %w", i, ErrCorruptFrame)
		}
		n := int(wire.BeUint16(rest))
		rest = rest[2:]
		if n == 0 || n > maxSubNameLen {
			return Subscription{}, fmt.Errorf("transport: subscription name %d is %d bytes, bound is [1, %d]: %w", i, n, maxSubNameLen, ErrCorruptFrame)
		}
		if len(rest) < n {
			return Subscription{}, fmt.Errorf("transport: subscription name %d truncated: %w", i, ErrCorruptFrame)
		}
		s.Names = append(s.Names, string(rest[:n]))
		rest = rest[n:]
	}
	if body[0] == subVersionNode {
		for _, dst := range []*string{&s.NodeID, &s.MeshAddr} {
			if len(rest) < 2 {
				return Subscription{}, fmt.Errorf("transport: subscription node identity truncated: %w", ErrCorruptFrame)
			}
			n := int(wire.BeUint16(rest))
			rest = rest[2:]
			if n > maxNodeInfoLen {
				return Subscription{}, fmt.Errorf("transport: subscription node identity field %d bytes, bound is %d: %w", n, maxNodeInfoLen, ErrCorruptFrame)
			}
			if len(rest) < n {
				return Subscription{}, fmt.Errorf("transport: subscription node identity truncated: %w", ErrCorruptFrame)
			}
			*dst = string(rest[:n])
			rest = rest[n:]
		}
		if s.NodeID == "" && s.MeshAddr == "" {
			// A v2 frame exists only to carry identity; an empty one would
			// re-encode as v1 and break the canonical round trip.
			return Subscription{}, fmt.Errorf("transport: version-%d subscription with empty node identity: %w", subVersionNode, ErrCorruptFrame)
		}
	}
	if len(rest) != 0 {
		return Subscription{}, fmt.Errorf("transport: %d trailing bytes after subscription: %w", len(rest), ErrCorruptFrame)
	}
	return s, nil
}
