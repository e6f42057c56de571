package transport

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestSubscriptionRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   Subscription
		want Subscription // canonical form expected back
	}{
		{"empty", Subscription{}, Subscription{}},
		{"all", Subscription{All: true}, Subscription{All: true}},
		{"all drops names", Subscription{All: true, Names: []string{"a", "b"}}, Subscription{All: true}},
		{"one name", Subscription{Names: []string{"tick"}}, Subscription{Names: []string{"tick"}}},
		{"sorted deduped", Subscription{Names: []string{"b", "a", "b", "a"}}, Subscription{Names: []string{"a", "b"}}},
		{"utf8 name", Subscription{Names: []string{"温度"}}, Subscription{Names: []string{"温度"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := EncodeSubscription(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSubscription(enc)
			if err != nil {
				t.Fatal(err)
			}
			if got.All != tc.want.All || !reflect.DeepEqual(append([]string{}, got.Names...), append([]string{}, tc.want.Names...)) {
				t.Fatalf("round trip: %+v -> %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestSubscriptionNodeIdentity covers the version-2 handshake: node
// identity rides the frame, survives the round trip, and a plain
// want-list stays byte-identical version 1.
func TestSubscriptionNodeIdentity(t *testing.T) {
	cases := []Subscription{
		{All: true, NodeID: "relay-west-1", MeshAddr: "10.0.0.7:9850"},
		{Names: []string{"temps", "events"}, NodeID: "leaf-3"},
		{MeshAddr: "127.0.0.1:9851"},
	}
	for _, in := range cases {
		enc, err := EncodeSubscription(in)
		if err != nil {
			t.Fatal(err)
		}
		if enc[0] != subVersionNode {
			t.Fatalf("identity-bearing subscription encoded as version %d", enc[0])
		}
		got, err := DecodeSubscription(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.NodeID != in.NodeID || got.MeshAddr != in.MeshAddr {
			t.Fatalf("identity round trip: %+v -> %+v", in, got)
		}
		want := in.Canonical()
		if got.All != want.All || !reflect.DeepEqual(append([]string{}, got.Names...), append([]string{}, want.Names...)) {
			t.Fatalf("want-list round trip: %+v -> %+v, want %+v", in, got, want)
		}
	}

	// Plain want-lists must stay version 1, byte-compatible with pre-mesh
	// peers.
	plain, err := EncodeSubscription(Subscription{Names: []string{"tick"}})
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != subVersion {
		t.Fatalf("plain subscription encoded as version %d", plain[0])
	}

	// Over-long identity fields are an encode error, and a v2 frame with
	// an empty identity is corruption on decode.
	if _, err := EncodeSubscription(Subscription{NodeID: strings.Repeat("x", maxNodeInfoLen+1)}); err == nil {
		t.Error("encode accepted an over-long node ID")
	}
	empty := []byte{subVersionNode, 0, 0, 0, 0, 0, 0, 0}
	if _, err := DecodeSubscription(empty); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("v2 frame with empty identity decoded: %v", err)
	}
}

func TestSubscriptionMatches(t *testing.T) {
	all := Subscription{All: true}
	some := Subscription{Names: []string{"a", "b"}}
	none := Subscription{}
	if !all.Matches("anything") {
		t.Error("All must match everything")
	}
	if !some.Matches("a") || !some.Matches("b") || some.Matches("c") {
		t.Error("name list matching broken")
	}
	if none.Matches("a") {
		t.Error("zero subscription must match nothing")
	}
}

func TestSubscriptionFrameOverWire(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteSubscription(Subscription{Names: []string{"tick", "tock"}}); err != nil {
		t.Fatal(err)
	}
	f, err := NewFrameReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.BaseKind() != FrameSub {
		t.Fatalf("frame kind %d, want FrameSub", f.Kind)
	}
	body, err := f.Body()
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSubscription(body)
	if err != nil {
		t.Fatal(err)
	}
	if s.All || len(s.Names) != 2 || s.Names[0] != "tick" || s.Names[1] != "tock" {
		t.Fatalf("decoded %+v", s)
	}
}

func TestSubscriptionDecodeRejectsCorruption(t *testing.T) {
	valid, err := EncodeSubscription(Subscription{Names: []string{"tick"}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"short body", valid[:2]},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"unknown flags", func() []byte { b := append([]byte(nil), valid...); b[1] = 0x80; return b }()},
		{"count over bound", func() []byte { b := append([]byte(nil), valid...); b[2], b[3] = 0xFF, 0xFF; return b }()},
		{"truncated name", valid[:len(valid)-1]},
		{"zero-length name", func() []byte { b := append([]byte(nil), valid[:subHeaderBytes]...); return append(b, 0, 0) }()},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSubscription(tc.body); !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("err = %v, want ErrCorruptFrame", err)
			}
		})
	}
}

func TestSubscriptionEncodeBounds(t *testing.T) {
	over := make([]string, maxSubNames+1)
	for i := range over {
		// Distinct names so Canonical cannot dedup below the bound.
		over[i] = "n" + strings.Repeat("x", 3) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	if _, err := EncodeSubscription(Subscription{Names: over}); err == nil {
		t.Error("encode accepted a want-list over the name bound")
	}
	if _, err := EncodeSubscription(Subscription{Names: []string{strings.Repeat("x", maxSubNameLen+1)}}); err == nil {
		t.Error("encode accepted an over-long name")
	}
	if _, err := EncodeSubscription(Subscription{Names: []string{""}}); err == nil {
		t.Error("encode accepted an empty name")
	}
}

// FuzzSubscriptionFrame feeds arbitrary bytes to the subscription
// decoder.  Invariants: no panic; every rejection wraps ErrCorruptFrame;
// every accepted want-list is within bounds and survives an
// encode-decode round trip in canonical form.
func FuzzSubscriptionFrame(f *testing.F) {
	for _, s := range []Subscription{
		{},
		{All: true},
		{Names: []string{"tick"}},
		{Names: []string{"a", "b", "c"}},
		{All: true, NodeID: "hop-1-0", MeshAddr: "127.0.0.1:9850"},
		{Names: []string{"tick"}, NodeID: "leaf"},
	} {
		enc, err := EncodeSubscription(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	// Corrupted seeds: version, flags, count, length field.
	base, _ := EncodeSubscription(Subscription{Names: []string{"tick", "tock"}})
	for _, off := range []int{0, 1, 2, 4} {
		b := append([]byte(nil), base...)
		b[off] ^= 0xFF
		f.Add(b)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSubscription(data)
		if err != nil {
			if !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(s.Names) > maxSubNames {
			t.Fatalf("accepted %d names, bound is %d", len(s.Names), maxSubNames)
		}
		for _, n := range s.Names {
			if n == "" || len(n) > maxSubNameLen {
				t.Fatalf("accepted name of %d bytes", len(n))
			}
		}
		// Round trip: whatever was accepted must re-encode cleanly and
		// decode back to its canonical self.
		enc, err := EncodeSubscription(s)
		if err != nil {
			t.Fatalf("re-encode of accepted subscription: %v", err)
		}
		s2, err := DecodeSubscription(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		want := s.Canonical()
		if s2.All != want.All || !reflect.DeepEqual(append([]string{}, s2.Names...), append([]string{}, want.Names...)) ||
			s2.NodeID != want.NodeID || s2.MeshAddr != want.MeshAddr {
			t.Fatalf("round trip drifted: %+v -> %+v", want, s2)
		}
	})
}
