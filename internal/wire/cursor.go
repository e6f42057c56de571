package wire

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"unsafe"

	"repro/internal/abi"
)

// Kind is a field's access class, decided once from its declared type so
// no accessor re-derives it per call.
type Kind uint8

const (
	KindOther    Kind = iota // not a defined basic type: no typed accessor applies
	KindSigned               // short, int, long, long long
	KindUnsigned             // their unsigned twins
	KindChar                 // char: reads as a small unsigned integer or as string bytes
	KindFloat                // float, double
	KindStruct               // nested structure; Field.Sub is its format
)

// Integer reports whether integer loads and stores apply (char included,
// as in C).
func (k Kind) Integer() bool { return k >= KindSigned && k <= KindChar }

// Cursor is one field resolved against one format: everything needed to
// reach its elements inside a record image without consulting the field
// list again.  Format.Cursor is the one place a field name becomes an
// offset; the zero Cursor addresses nothing and loads as zero.
type Cursor struct {
	Field *Field // the resolved field (name, declared type, nested format)
	Off   int    // byte offset of element 0
	Size  int    // bytes per element
	Count int    // elements
	Kind  Kind
	Fits  bool // the whole field lies inside the record: Off >= 0 and Off+Size*Count <= Format.Size
	Order abi.Endian
}

// InRange reports whether i indexes one of the field's elements.
func (c *Cursor) InRange(i int) bool { return uint(i) < uint(c.Count) }

// Bytes returns the field's bytes inside buf (aliasing it).
func (c *Cursor) Bytes(buf []byte) []byte { return buf[c.Off : c.Off+c.Size*c.Count] }

// CString loads a char-array field as a string, stopping at its first NUL.
func (c *Cursor) CString(buf []byte) string {
	b := c.Bytes(buf)
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// Uint loads element i zero-extended; Int loads it sign-extended.  An
// element width that is not 1, 2, 4 or 8 loads as zero.
func (c *Cursor) Uint(buf []byte, i int) uint64 {
	b := buf[c.Off+i*c.Size:]
	switch c.Size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(c.Order.Uint16(b))
	case 4:
		return uint64(c.Order.Uint32(b))
	case 8:
		return c.Order.Uint64(b)
	}
	return 0
}

func (c *Cursor) Int(buf []byte, i int) int64 {
	shift := uint(64 - 8*c.Size)
	return int64(c.Uint(buf, i)<<shift) >> shift
}

// PutUint stores v into element i, truncating to the element width as a
// C assignment would.
func (c *Cursor) PutUint(buf []byte, i int, v uint64) {
	c.Order.PutUint(buf[c.Off+i*c.Size:], c.Size, v)
}

// cursorTable is a format's by-name index: one Cursor per field in field
// order, and an open-addressed hash over them.  A slot holds the name's
// key — its length and its first and last (up to) eight bytes, which
// determine a name of at most 16 bytes completely — so a probe compares
// three words, and only longer names compare strings.
type cursorTable struct {
	cur   []Cursor
	slots []cursorSlot // power-of-two length, at most a quarter full
}

type cursorSlot struct {
	a, b uint64
	n    int32
	idx  int32 // index into cur plus one; zero marks an empty slot
}

// The table hash is keyed afresh in every process: a peer chooses the
// field names of the formats it sends, and must not get to choose names
// that collide.
var (
	hashSeed     = maphash.MakeSeed()
	seedA, seedB = rand.Uint64(), rand.Uint64()
)

// probe returns the slot that holds name or, when no slot does, the
// empty one where it belongs, along with name's key: its first and last
// eight (or four, or single) bytes as two words, read in constant time
// whatever its length — or, past 16 bytes, where the ends no longer
// determine the name, a hash of all of it.
func (t *cursorTable) probe(name string) (s *cursorSlot, a, b uint64) {
	n := len(name)
	switch {
	case n > 16:
		a = maphash.String(hashSeed, name)
	case n >= 8:
		a, b = strWord(name), strWord(name[n-8:])
	case n >= 4:
		a, b = uint64(strHalf(name)), uint64(strHalf(name[n-4:]))
	case n > 0:
		a, b = uint64(name[0])|uint64(name[n>>1])<<8, uint64(name[n-1])
	}
	hi, lo := bits.Mul64(a^seedA, b^seedB)
	mask := len(t.slots) - 1
	for i := int(hi^lo) & mask; ; i = (i + 1) & mask {
		s = &t.slots[i]
		if s.idx == 0 || s.a == a && s.b == b && int(s.n) == n &&
			(n <= 16 || t.cur[s.idx-1].Field.Name == name) {
			return s, a, b
		}
	}
}

func strWord(s string) uint64 { return uint64(strHalf(s)) | uint64(strHalf(s[4:]))<<32 }

func strHalf(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// Cursor resolves name against f, or returns nil when f has no such
// field.  The table is built on first use and published as Format.fp is:
// once stored it is never written again, so lookups take no lock, touch
// no map and allocate nothing, and cost the same for the last of 400
// fields as for the first of one.  The Cursor is shared — read it, do
// not modify it.  Of two fields with one name (which Validate rejects)
// the first answers.
//
//pbio:hotpath noalloc=0 every by-name accessor call lands here; pinned by pbio/alloc_test.go TestAllocsRecordAccessors
func (f *Format) Cursor(name string) *Cursor {
	t := (*cursorTable)(atomic.LoadPointer(&f.cursors))
	if t == nil {
		t = f.buildCursors()
	}
	if s, _, _ := t.probe(name); s.idx != 0 {
		return &t.cur[s.idx-1]
	}
	return nil
}

// FieldByName returns the field with the given name, or nil.
func (f *Format) FieldByName(name string) *Field {
	if c := f.Cursor(name); c != nil {
		return c.Field
	}
	return nil
}

// buildCursors makes and publishes f's table, the three allocations a
// format's first by-name access pays.  Racing builders make equal
// tables; whichever is stored last stays.
func (f *Format) buildCursors() *cursorTable {
	t := &cursorTable{
		cur:   make([]Cursor, len(f.Fields)),
		slots: make([]cursorSlot, 1<<bits.Len(uint(4*len(f.Fields)))),
	}
	for i := range f.Fields {
		fl := &f.Fields[i]
		c := &t.cur[i]
		*c = Cursor{Field: fl, Off: fl.Offset, Size: fl.Size, Count: fl.Count, Order: f.Order,
			Fits: fl.Offset >= 0 && fl.End() <= f.Size}
		switch {
		case fl.IsStruct():
			c.Kind = KindStruct
		case fl.Type.Signed():
			c.Kind = KindSigned
		case fl.Type.Integer():
			c.Kind = KindUnsigned
		case fl.Type == abi.Char:
			c.Kind = KindChar
		case fl.Type.Floating():
			c.Kind = KindFloat
		}
		// Of a duplicated name the first stays.
		if s, a, b := t.probe(fl.Name); s.idx == 0 {
			*s = cursorSlot{a: a, b: b, n: int32(len(fl.Name)), idx: int32(i + 1)}
		}
	}
	atomic.StorePointer(&f.cursors, unsafe.Pointer(t))
	return t
}
