package relay

import (
	"repro/internal/transport"
	"repro/internal/wire"
)

// formatEntry is what the relay knows about one relay format ID.
type formatEntry struct {
	format *wire.Format
	meta   []byte       // the format's meta block, encoded once: every meta frame's body
	stats  *formatStats // accounting bucket of the format's name (shared by every ID carrying it)
}

// formatSpace is the relay-wide format space.  Producers number formats
// per connection; the relay renumbers them into this one space, in which
// identical layouts share an ID whichever producer sent them.  Relay ID n
// is entries[n-1] — ID 0 ("no format") is never assigned — so the slice
// order is first-seen order, the order late joiners are replayed meta
// in.  Guarded by Server.mu.
type formatSpace struct {
	entries []formatEntry
	byPrint map[string]uint32   // layout fingerprint -> relay ID
	byName  map[string][]uint32 // format name -> relay IDs carrying it (subscription routing)
}

// register returns f's relay ID, adding f when no format of its layout is
// known yet; added reports that, and that f's meta has still to reach the
// consumers.  statsFor resolves a new entry's accounting bucket.
func (fs *formatSpace) register(f *wire.Format, statsFor func(name string) *formatStats) (id uint32, added bool, err error) {
	if err := f.Validate(); err != nil {
		return 0, false, err
	}
	fp := f.Fingerprint()
	if id, ok := fs.byPrint[fp]; ok {
		return id, false, nil
	}
	if fs.byPrint == nil {
		fs.byPrint = make(map[string]uint32)
		fs.byName = make(map[string][]uint32)
	}
	fs.entries = append(fs.entries, formatEntry{format: f, meta: wire.EncodeMeta(f), stats: statsFor(f.Name)})
	id = uint32(len(fs.entries))
	fs.byPrint[fp] = id
	fs.byName[f.Name] = append(fs.byName[f.Name], id)
	return id, true, nil
}

// metaFrame builds the meta frame for a relay format ID, checksummed when
// the relay checksums what it originates.
func (fs *formatSpace) metaFrame(id uint32, sums bool) transport.Frame {
	meta := fs.entries[id-1].meta
	if sums {
		return transport.Frame{Kind: transport.FrameMeta | transport.FrameFlagSum, FormatID: id, Payload: transport.AppendSum(nil, meta)}
	}
	return transport.Frame{Kind: transport.FrameMeta, FormatID: id, Payload: meta}
}

// idsFor returns the relay IDs carrying a format name.
func (fs *formatSpace) idsFor(name string) []uint32 { return fs.byName[name] }

// len returns the number of distinct formats seen.
func (fs *formatSpace) len() int { return len(fs.entries) }

// registerFormat adds a format to the relay space and resolves which
// consumers' subscriptions cover a new ID.  It also returns the format's
// accounting bucket for the caller's binding.
func (s *Server) registerFormat(f *wire.Format) (uint32, bool, *formatStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, added, err := s.formats.register(f, s.fstatsForLocked)
	if err != nil {
		return 0, false, nil, err
	}
	if added {
		// Subscriptions are by name; a just-learned ID may already be
		// wanted by consumers that subscribed before the format existed.
		for c := range s.consumers {
			if !c.all && c.sub.Matches(f.Name) {
				c.want[id] = true
			}
		}
	}
	return id, added, s.formats.entries[id-1].stats, nil
}

// broadcastMeta sends a newly-registered format's meta to current
// consumers (late joiners get it from the replay in pumpConsumer).
func (s *Server) broadcastMeta(relayID uint32) {
	s.mu.Lock()
	f := s.formats.metaFrame(relayID, s.sums)
	s.mu.Unlock()
	s.broadcast(f, nil, 0, 0, nil)
}
