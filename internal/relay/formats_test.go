package relay

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"repro/internal/abi"
	"repro/internal/transport"
	"repro/internal/wire"
)

func noStats(string) *formatStats { return nil }

// TestFormatSpaceRegisterAndLookup: IDs count from 1 (0 is never
// assigned), an entry holds the format and its encoded meta, and an
// invalid format is refused and leaves nothing behind.
func TestFormatSpaceRegisterAndLookup(t *testing.T) {
	var fs formatSpace
	f := wire.MustLayout(goldenMixed(), &abi.SparcV8)
	id, added, err := fs.register(f, noStats)
	if err != nil || id != 1 || !added {
		t.Fatalf("register = (%d, %v, %v), want (1, true, nil)", id, added, err)
	}
	if fs.entries[id-1].format != f {
		t.Error("entry holds a different format")
	}
	if mf := fs.metaFrame(id, false); mf.Kind != transport.FrameMeta || mf.FormatID != id || !bytes.Equal(mf.Payload, wire.EncodeMeta(f)) {
		t.Errorf("plain meta frame = kind %#x id %d, %d payload bytes", mf.Kind, mf.FormatID, len(mf.Payload))
	}
	mf := fs.metaFrame(id, true)
	if body, err := mf.Body(); !mf.Checksummed() || err != nil || !bytes.Equal(body, wire.EncodeMeta(f)) {
		t.Errorf("checksummed meta frame: kind %#x, body err %v", mf.Kind, err)
	}
	if _, _, err := fs.register(&wire.Format{Name: "", Size: 8}, noStats); err == nil {
		t.Error("register accepted an invalid format")
	}
	if fs.len() != 1 || len(fs.idsFor("")) != 0 {
		t.Errorf("a refused format was filed: len %d, idsFor(\"\") %v", fs.len(), fs.idsFor(""))
	}
}

// TestFormatSpaceDedupesAcrossProducers: producers registering
// concurrently get one relay ID per layout, whichever pointer they hold,
// and a late joiner is replayed every format once, in ID order.
func TestFormatSpaceDedupesAcrossProducers(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var mu sync.Mutex
	ids := make(map[string]uint32) // fingerprint -> relay ID
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := wire.MustLayout(goldenMixed(), &abi.All[(g+i)%len(abi.All)])
				id, _, fstats, err := s.registerFormat(f)
				if err != nil || id == 0 || fstats == nil {
					t.Errorf("registerFormat = (%d, %v, %v)", id, fstats, err)
					return
				}
				mu.Lock()
				if prev, ok := ids[f.Fingerprint()]; ok && prev != id {
					t.Errorf("one layout got relay IDs %d and %d", prev, id)
				}
				ids[f.Fingerprint()] = id
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	// abi.All has models whose layouts coincide (v8/v9, o32).
	if n := s.Formats(); n != len(ids) || n >= len(abi.All) {
		t.Errorf("relay holds %d formats for %d distinct layouts of %d ABIs", n, len(ids), len(abi.All))
	}

	relayEnd, consumerEnd := net.Pipe()
	defer consumerEnd.Close()
	_, replay, _, ok := s.registerConsumer(relayEnd)
	if !ok || len(replay) != s.Formats() {
		t.Fatalf("late joiner replayed %d frames, want %d", len(replay), s.Formats())
	}
	for i, mf := range replay {
		format, _, err := wire.DecodeMeta(mf.Payload)
		if err != nil || mf.FormatID != uint32(i+1) || ids[format.Fingerprint()] != mf.FormatID {
			t.Errorf("replay frame %d: id %d, layout filed under %d, err %v", i, mf.FormatID, ids[format.Fingerprint()], err)
		}
	}
	if st := s.Stats(); st.MetaReplays != int64(len(replay)) {
		t.Errorf("MetaReplays = %d, want %d", st.MetaReplays, len(replay))
	}
}

// TestFormatSpaceByNameBackfill: subscriptions are by name.  A want-list
// resolves to every relay ID already carrying the name, and an ID learned
// later is back-filled into the want-sets that name it.
func TestFormatSpaceByNameBackfill(t *testing.T) {
	s := NewServer()
	defer s.Close()
	relayEnd, consumerEnd := net.Pipe()
	defer consumerEnd.Close()
	c, _, _, ok := s.registerConsumer(relayEnd)
	if !ok {
		t.Fatal("consumer not registered")
	}

	first, _, _, _ := s.registerFormat(wire.MustLayout(goldenMixed(), &abi.SparcV8))
	other, _, _, _ := s.registerFormat(wire.MustLayout(goldenNested(), &abi.SparcV8))
	s.setSubscription(c, transport.Subscription{Names: []string{"mixed"}})
	later, added, _, _ := s.registerFormat(wire.MustLayout(goldenMixed(), &abi.X86x64))
	if !added || later == first {
		t.Fatalf("second layout of \"mixed\": id %d (first %d), added %v", later, first, added)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if got := s.formats.idsFor("mixed"); len(got) != 2 || got[0] != first || got[1] != later {
		t.Errorf("idsFor(mixed) = %v, want [%d %d]", got, first, later)
	}
	if !c.wantsLocked(first) || !c.wantsLocked(later) || c.wantsLocked(other) {
		t.Errorf("want-set %v: want IDs %d and %d, not %d", c.want, first, later, other)
	}
}
