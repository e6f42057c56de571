// Package native represents records as raw byte images in a specific
// architecture's layout — the "natural form in which data is maintained by
// the sender" that NDR puts on the wire unmodified.
//
// A Record pairs a byte buffer with the wire.Format describing it.  Typed
// accessors read and write fields honoring the format's byte order,
// element sizes and offsets, so tests and applications can build a record
// exactly as a C program on that architecture would hold it in memory.
package native

import (
	"fmt"
	"math"

	"repro/internal/wire"
)

// Record is a native record image: Buf holds exactly Format.Size bytes laid
// out according to Format.
type Record struct {
	Format *wire.Format
	Buf    []byte
}

// New allocates a zeroed record of the given format.
func New(f *wire.Format) *Record {
	return &Record{Format: f, Buf: make([]byte, f.Size)}
}

// View wraps an existing buffer (for example a receive buffer) as a record
// without copying.  The buffer must be at least f.Size bytes.
func View(f *wire.Format, buf []byte) (*Record, error) {
	if len(buf) < f.Size {
		return nil, fmt.Errorf("native: buffer of %d bytes too small for %d-byte format %q",
			len(buf), f.Size, f.Name)
	}
	return &Record{Format: f, Buf: buf[:f.Size]}, nil
}

// Clone returns a deep copy of the record.
func (r *Record) Clone() *Record {
	buf := make([]byte, len(r.Buf))
	copy(buf, r.Buf)
	return &Record{Format: r.Format, Buf: buf}
}

// Every accessor below resolves its field name through the format's
// cursor table (wire.Format.Cursor), the one by-name lookup there is.

func (r *Record) noField(name string) error {
	return fmt.Errorf("native: format %q has no field %q", r.Format.Name, name)
}

func rangeErr(c *wire.Cursor, i int) error {
	return fmt.Errorf("native: index %d out of range for field %q[%d]", i, c.Field.Name, c.Count)
}

// SetInt stores a signed integer into element i of the named field,
// truncating to the field's element size as a C assignment would.
//
//pbio:hotpath noalloc=0 one wire.Cursor lookup, two checks, one store; pinned by pbio/alloc_test.go TestAllocsRecordAccessors
func (r *Record) SetInt(name string, i int, v int64) error {
	c := r.Format.Cursor(name)
	if c == nil {
		return r.noField(name)
	}
	if !c.Kind.Integer() {
		return fmt.Errorf("native: field %q is not an integer field", name)
	}
	if !c.InRange(i) {
		return rangeErr(c, i)
	}
	c.PutUint(r.Buf, i, uint64(v))
	return nil
}

// Int loads element i of the named integer field, sign-extending signed
// types and zero-extending unsigned ones.
//
//pbio:hotpath noalloc=0 one wire.Cursor lookup, two checks, one load; pinned by pbio/alloc_test.go TestAllocsRecordAccessors
func (r *Record) Int(name string, i int) (int64, error) {
	c := r.Format.Cursor(name)
	if c == nil {
		return 0, r.noField(name)
	}
	if !c.Kind.Integer() {
		return 0, fmt.Errorf("native: field %q is not an integer field", name)
	}
	if !c.InRange(i) {
		return 0, rangeErr(c, i)
	}
	if c.Kind == wire.KindSigned {
		return c.Int(r.Buf, i), nil
	}
	return int64(c.Uint(r.Buf, i)), nil
}

// SetFloat stores a floating-point value into element i of the named
// field (narrowing to float32 for 4-byte fields).
//
//pbio:hotpath noalloc=0 one wire.Cursor lookup, three checks, one store; pinned by pbio/alloc_test.go TestAllocsRecordAccessors
func (r *Record) SetFloat(name string, i int, v float64) error {
	c := r.Format.Cursor(name)
	if c == nil {
		return r.noField(name)
	}
	if c.Kind != wire.KindFloat {
		return fmt.Errorf("native: field %q is not a floating-point field", name)
	}
	if !c.InRange(i) {
		return rangeErr(c, i)
	}
	switch c.Size {
	case 4:
		c.PutUint(r.Buf, i, uint64(math.Float32bits(float32(v))))
	case 8:
		c.PutUint(r.Buf, i, math.Float64bits(v))
	default:
		return fmt.Errorf("native: field %q has float size %d", name, c.Size)
	}
	return nil
}

// Float loads element i of the named floating-point field.
//
//pbio:hotpath noalloc=0 one wire.Cursor lookup, three checks, one load; pinned by pbio/alloc_test.go TestAllocsRecordAccessors
func (r *Record) Float(name string, i int) (float64, error) {
	c := r.Format.Cursor(name)
	if c == nil {
		return 0, r.noField(name)
	}
	if c.Kind != wire.KindFloat {
		return 0, fmt.Errorf("native: field %q is not a floating-point field", name)
	}
	if !c.InRange(i) {
		return 0, rangeErr(c, i)
	}
	switch c.Size {
	case 4:
		return float64(math.Float32frombits(uint32(c.Uint(r.Buf, i)))), nil
	case 8:
		return math.Float64frombits(c.Uint(r.Buf, i)), nil
	}
	return 0, fmt.Errorf("native: field %q has float size %d", name, c.Size)
}

// chars resolves name as a char-array field.
func (r *Record) chars(name string) (*wire.Cursor, error) {
	c := r.Format.Cursor(name)
	if c == nil {
		return nil, r.noField(name)
	}
	if c.Kind != wire.KindChar {
		return nil, fmt.Errorf("native: field %q is not a char field", name)
	}
	return c, nil
}

// SetString stores s into a char-array field, NUL-padding (and silently
// truncating) to the field length, C-style.
func (r *Record) SetString(name, s string) error {
	c, err := r.chars(name)
	if err != nil {
		return err
	}
	dst := c.Bytes(r.Buf)
	clear(dst[copy(dst, s):])
	return nil
}

// String loads a char-array field as a string, stopping at the first NUL.
func (r *Record) String(name string) (string, error) {
	c, err := r.chars(name)
	if err != nil {
		return "", err
	}
	return c.CString(r.Buf), nil
}

// Sub returns element i of a nested-structure field as a Record view
// aliasing this record's buffer: reads and writes through it access the
// containing record directly.
func (r *Record) Sub(name string, i int) (*Record, error) {
	c := r.Format.Cursor(name)
	if c == nil {
		return nil, r.noField(name)
	}
	if c.Kind != wire.KindStruct {
		return nil, fmt.Errorf("native: field %q is %v, not a structure", name, c.Field.Type)
	}
	if !c.InRange(i) {
		return nil, rangeErr(c, i)
	}
	off := c.Off + i*c.Size
	return &Record{Format: c.Field.Sub, Buf: r.Buf[off : off+c.Size]}, nil
}

// MustSub is Sub that panics on error.
func (r *Record) MustSub(name string, i int) *Record {
	s, err := r.Sub(name, i)
	if err != nil {
		panic(err)
	}
	return s
}

// Bytes returns the raw field bytes (aliasing the record buffer).
func (r *Record) Bytes(name string) ([]byte, error) {
	c := r.Format.Cursor(name)
	if c == nil {
		return nil, r.noField(name)
	}
	return c.Bytes(r.Buf), nil
}

// MustSetInt is SetInt that panics on error, for test/benchmark fixtures.
func (r *Record) MustSetInt(name string, i int, v int64) {
	if err := r.SetInt(name, i, v); err != nil {
		panic(err)
	}
}

// MustSetFloat is SetFloat that panics on error.
func (r *Record) MustSetFloat(name string, i int, v float64) {
	if err := r.SetFloat(name, i, v); err != nil {
		panic(err)
	}
}

// MustSetString is SetString that panics on error.
func (r *Record) MustSetString(name, s string) {
	if err := r.SetString(name, s); err != nil {
		panic(err)
	}
}
