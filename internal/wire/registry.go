package wire

import "sync"

// Registry assigns small integer IDs to formats for a communication
// session, playing the role of PBIO's format server in a purely in-band
// fashion: the writer registers formats and sends each format's
// meta-information before its first record.  (The receiving side files
// what it is sent under the sender's IDs in a transport.FormatTable.)
//
// The zero value is ready to use (maps are allocated on first insert).
// A Registry is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	byID    map[uint32]*Format
	byPrint map[string]uint32 // fingerprint -> id, for writer-side dedup
	nextID  uint32
}

// NewRegistry returns an empty registry.  IDs start at 1; 0 is reserved as
// "no format".
func NewRegistry() *Registry { return &Registry{} }

// Register assigns an ID to the format, or returns the existing ID if a
// format with an identical layout was already registered.  The second
// return value reports whether the format was newly added (and therefore
// whether its meta-information still needs to be transmitted).
func (r *Registry) Register(f *Format) (id uint32, added bool, err error) {
	if err := f.Validate(); err != nil {
		return 0, false, err
	}
	fp := f.Fingerprint()
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.byPrint[fp]; ok {
		return id, false, nil
	}
	if r.byID == nil {
		r.byID = make(map[uint32]*Format)
		r.byPrint = make(map[string]uint32)
	}
	if r.nextID == 0 {
		r.nextID = 1
	}
	id = r.nextID
	r.nextID++
	r.byID[id] = f
	r.byPrint[fp] = id
	return id, true, nil
}

// Lookup returns the format bound to id, or nil if unknown.
func (r *Registry) Lookup(id uint32) *Format {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byID[id]
}

// Len returns the number of registered formats.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}
