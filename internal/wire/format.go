// Package wire defines record format descriptions — the meta-information
// PBIO transmits alongside natively-laid-out data — and the operations on
// them: laying out an abstract schema for a concrete architecture,
// encoding/decoding format descriptions for transmission, registering
// formats under wire IDs, and matching fields between formats by name.
package wire

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/abi"
)

// FieldSpec declares one field of a record schema in abstract terms: a
// name, a C basic type (or a nested sub-schema), and an element count
// (1 for scalars, >1 for a fixed-size array).  Schemas are
// architecture-independent; layout against an abi.Arch produces the
// concrete Field.
type FieldSpec struct {
	Name  string
	Type  abi.CType
	Count int
	// Sub, when non-nil, makes this a nested structure field (or an
	// array of Count structures); Type is ignored.  Conversion of such
	// fields is performed by sub-routines over the nested format, as the
	// paper describes (§3).
	Sub *Schema
}

// Schema is an ordered list of field declarations, the
// architecture-independent description writers and readers provide to
// PBIO ("names, types, sizes and positions of the fields in the records").
type Schema struct {
	Name   string
	Fields []FieldSpec
}

// maxNesting bounds schema/format nesting depth, guarding against cyclic
// schemas and hostile meta blocks.
const maxNesting = 16

// Validate checks the schema for empty or duplicate field names, invalid
// types, non-positive counts and excessive nesting.
func (s *Schema) Validate() error { return s.validate(0) }

func (s *Schema) validate(depth int) error {
	if depth > maxNesting {
		return fmt.Errorf("wire: schema %q nested deeper than %d", s.Name, maxNesting)
	}
	if s.Name == "" {
		return fmt.Errorf("wire: schema with empty name")
	}
	seen := make(map[string]bool, len(s.Fields))
	if len(s.Fields) == 0 {
		return fmt.Errorf("wire: schema %q has no fields", s.Name)
	}
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("wire: schema %q: field with empty name", s.Name)
		}
		if strings.ContainsAny(f.Name, "<>&\x00") {
			// Field names travel inside meta-information and as XML
			// element names in the XML baseline; keep them clean.
			return fmt.Errorf("wire: schema %q: field %q contains reserved characters", s.Name, f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("wire: schema %q: duplicate field %q", s.Name, f.Name)
		}
		seen[f.Name] = true
		if f.Sub != nil {
			if err := f.Sub.validate(depth + 1); err != nil {
				return err
			}
		} else if !f.Type.Valid() {
			return fmt.Errorf("wire: schema %q: field %q has invalid type", s.Name, f.Name)
		}
		if f.Count <= 0 {
			return fmt.Errorf("wire: schema %q: field %q has count %d", s.Name, f.Name, f.Count)
		}
	}
	return nil
}

// Field is a concrete, laid-out record field: the abstract declaration
// plus the element size and byte offset assigned by a specific
// architecture's layout rules.
type Field struct {
	Name   string
	Type   abi.CType
	Count  int // number of elements (1 for scalars)
	Size   int // size in bytes of ONE element
	Offset int // byte offset of the field within the record
	// Sub, when non-nil, is the laid-out format of a nested structure
	// field; Size equals Sub.Size and field offsets inside Sub are
	// relative to each element's start.
	Sub *Format
}

// IsStruct reports whether the field is a nested structure.
func (f *Field) IsStruct() bool { return f.Sub != nil }

// ByteLen returns the total size in bytes of the field (Size × Count).
func (f *Field) ByteLen() int { return f.Size * f.Count }

// End returns the byte offset one past the field's last byte.
func (f *Field) End() int { return f.Offset + f.ByteLen() }

// Format is a concrete record format: a schema laid out for one
// architecture.  It is exactly the meta-information PBIO ships with a
// stream — everything a receiver needs to interpret the sender's native
// bytes.
type Format struct {
	Name   string
	Arch   string     // name of the architecture the layout follows
	Order  abi.Endian // byte order of all multi-byte fields
	Size   int        // total record size including trailing padding
	Fields []Field

	// fp caches Fingerprint as a *string.  Formats are immutable once
	// built, and the fingerprint is consulted on hot paths (registry
	// dedup, conversion caches), so it is computed at most once per
	// format and shared — atomically, because one Format pointer is
	// shared across streams by the transport meta cache.  A raw pointer
	// with atomic loads/stores rather than atomic.Pointer so Format
	// values stay copyable (a copy shares or re-derives the cache,
	// either is correct).  Callers that mutate a Format after
	// construction (none in-tree) must treat it as a new value.
	fp      unsafe.Pointer
	cursors unsafe.Pointer // *cursorTable (cursor.go): the by-name index, cached the same way
}

// Layout computes the concrete Format a C compiler for arch would give the
// schema: each field is placed at the next offset satisfying its type's
// alignment, and the total size is rounded up to the strictest member
// alignment (trailing padding), exactly the System V struct layout
// algorithm.
func Layout(s *Schema, arch *abi.Arch) (*Format, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	f, _ := layout(s, arch)
	return f, nil
}

// layout performs the recursive layout, returning the format and its
// structure alignment (the strictest member alignment, which a nested
// field inherits).
func layout(s *Schema, arch *abi.Arch) (*Format, int) {
	f := &Format{
		Name:   s.Name,
		Arch:   arch.Name,
		Order:  arch.Order,
		Fields: make([]Field, len(s.Fields)),
	}
	off := 0
	maxAlign := 1
	for i, fs := range s.Fields {
		var size, align int
		var sub *Format
		if fs.Sub != nil {
			sub, align = layout(fs.Sub, arch)
			size = sub.Size
		} else {
			size = arch.SizeOf(fs.Type)
			align = arch.AlignOf(fs.Type)
		}
		if align > maxAlign {
			maxAlign = align
		}
		off = abi.Align(off, align)
		f.Fields[i] = Field{
			Name:   fs.Name,
			Type:   fs.Type,
			Count:  fs.Count,
			Size:   size,
			Offset: off,
			Sub:    sub,
		}
		off += size * fs.Count
	}
	f.Size = abi.Align(off, maxAlign)
	return f, maxAlign
}

// MustLayout is Layout that panics on error, for statically-known schemas
// in tests and benchmarks.
func MustLayout(s *Schema, arch *abi.Arch) *Format {
	f, err := Layout(s, arch)
	if err != nil {
		panic(err)
	}
	return f
}

// Validate checks internal consistency of a format (typically one received
// off the wire): fields in bounds, no overlap, no duplicate names, nested
// formats consistent and within the nesting bound.
func (f *Format) Validate() error { return f.validate(0) }

func (f *Format) validate(depth int) error {
	if depth > maxNesting {
		return fmt.Errorf("wire: format %q nested deeper than %d", f.Name, maxNesting)
	}
	if f.Name == "" {
		return fmt.Errorf("wire: format with empty name")
	}
	if f.Size <= 0 {
		return fmt.Errorf("wire: format %q: size %d", f.Name, f.Size)
	}
	if len(f.Fields) == 0 {
		return fmt.Errorf("wire: format %q has no fields", f.Name)
	}
	seen := make(map[string]bool, len(f.Fields))
	sorted := make([]*Field, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		if fl.Name == "" {
			return fmt.Errorf("wire: format %q: field with empty name", f.Name)
		}
		if seen[fl.Name] {
			return fmt.Errorf("wire: format %q: duplicate field %q", f.Name, fl.Name)
		}
		seen[fl.Name] = true
		if fl.IsStruct() {
			if err := fl.Sub.validate(depth + 1); err != nil {
				return err
			}
			if fl.Size != fl.Sub.Size {
				return fmt.Errorf("wire: format %q: struct field %q size %d != nested format size %d",
					f.Name, fl.Name, fl.Size, fl.Sub.Size)
			}
			if fl.Sub.Order != f.Order {
				return fmt.Errorf("wire: format %q: struct field %q has a different byte order",
					f.Name, fl.Name)
			}
		} else {
			if !fl.Type.Valid() {
				return fmt.Errorf("wire: format %q: field %q invalid type", f.Name, fl.Name)
			}
			switch fl.Size {
			case 1, 2, 4, 8:
			default:
				return fmt.Errorf("wire: format %q: field %q element size %d", f.Name, fl.Name, fl.Size)
			}
		}
		if fl.Count <= 0 {
			return fmt.Errorf("wire: format %q: field %q count %d", f.Name, fl.Name, fl.Count)
		}
		if fl.Offset < 0 || fl.End() > f.Size {
			return fmt.Errorf("wire: format %q: field %q [%d,%d) outside record of %d bytes",
				f.Name, fl.Name, fl.Offset, fl.End(), f.Size)
		}
		sorted[i] = fl
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Offset < sorted[i-1].End() {
			return fmt.Errorf("wire: format %q: fields %q and %q overlap",
				f.Name, sorted[i-1].Name, sorted[i].Name)
		}
	}
	if f.Order != abi.BigEndian && f.Order != abi.LittleEndian {
		return fmt.Errorf("wire: format %q: invalid byte order", f.Name)
	}
	return nil
}

// SameLayout reports whether two formats describe byte-for-byte identical
// record images: same size, byte order, and identical field list (name,
// type, size, count, offset) in the same order.  When a wire format and
// the receiver's native format have the same layout, PBIO's homogeneous
// fast path applies: the record is usable directly out of the receive
// buffer with no conversion at all.
func SameLayout(a, b *Format) bool {
	if a.Size != b.Size || a.Order != b.Order || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		fa, fb := &a.Fields[i], &b.Fields[i]
		if fa.Name != fb.Name || fa.Type != fb.Type ||
			fa.Size != fb.Size || fa.Count != fb.Count || fa.Offset != fb.Offset {
			return false
		}
		if fa.IsStruct() != fb.IsStruct() {
			return false
		}
		if fa.IsStruct() && !SameLayout(fa.Sub, fb.Sub) {
			return false
		}
	}
	return true
}

// Fingerprint returns a canonical string identifying the format's layout,
// usable as a cache key for conversion plans and generated programs.  The
// string is computed once per Format and cached, so steady-state cache
// lookups keyed on it do not allocate.
func (f *Format) Fingerprint() string {
	if p := (*string)(atomic.LoadPointer(&f.fp)); p != nil {
		return *p
	}
	var b strings.Builder
	f.fingerprint(&b)
	s := b.String()
	atomic.StorePointer(&f.fp, unsafe.Pointer(&s))
	return s
}

func (f *Format) fingerprint(b *strings.Builder) {
	fmt.Fprintf(b, "%s|%s|%d|%d|", f.Name, f.Order, f.Size, len(f.Fields))
	for i := range f.Fields {
		fl := &f.Fields[i]
		fmt.Fprintf(b, "%s:%d:%d:%d:%d", fl.Name, fl.Type, fl.Size, fl.Count, fl.Offset)
		if fl.IsStruct() {
			b.WriteString("{")
			fl.Sub.fingerprint(b)
			b.WriteString("}")
		}
		b.WriteString(";")
	}
}

// Schema reconstructs the architecture-independent schema underlying the
// format (used for re-laying-out an incoming wire format against the
// receiver's own architecture).
func (f *Format) Schema() *Schema {
	s := &Schema{Name: f.Name, Fields: make([]FieldSpec, len(f.Fields))}
	for i := range f.Fields {
		fl := &f.Fields[i]
		s.Fields[i] = FieldSpec{Name: fl.Name, Type: fl.Type, Count: fl.Count}
		if fl.IsStruct() {
			s.Fields[i].Sub = fl.Sub.Schema()
		}
	}
	return s
}

// String renders the format in a compact human-readable form, used by
// pbio-dump and the reflection examples.
func (f *Format) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "format %q (%s, %s-endian, %d bytes):\n", f.Name, f.Arch, f.Order, f.Size)
	f.describeFields(&b, "  ")
	return b.String()
}

func (f *Format) describeFields(b *strings.Builder, indent string) {
	for i := range f.Fields {
		fl := &f.Fields[i]
		ty := fl.Type.String()
		if fl.IsStruct() {
			ty = "struct " + fl.Sub.Name
		}
		if fl.Count == 1 {
			fmt.Fprintf(b, "%s%-20s %-14s size %d offset %d\n", indent, fl.Name, ty, fl.Size, fl.Offset)
		} else {
			fmt.Fprintf(b, "%s%-20s %-14s size %d offset %d count %d\n", indent, fl.Name, ty, fl.Size, fl.Offset, fl.Count)
		}
		if fl.IsStruct() {
			fl.Sub.describeFields(b, indent+"  ")
		}
	}
}

// Flatten returns a format with every nested structure expanded into its
// basic fields at absolute offsets, array elements of structures expanded
// individually, and names joined with dots ("pos.x", "cells.2.id").  The
// fixed-wire-format baselines (MPI typemaps, CDR, XML) operate on
// flattened formats, mirroring how applications describe nested C structs
// to those systems.
func (f *Format) Flatten() *Format {
	out := &Format{Name: f.Name, Arch: f.Arch, Order: f.Order, Size: f.Size}
	flattenInto(out, f, "", 0)
	return out
}

func flattenInto(out, f *Format, prefix string, base int) {
	for i := range f.Fields {
		fl := &f.Fields[i]
		if !fl.IsStruct() {
			out.Fields = append(out.Fields, Field{
				Name:   prefix + fl.Name,
				Type:   fl.Type,
				Count:  fl.Count,
				Size:   fl.Size,
				Offset: base + fl.Offset,
			})
			continue
		}
		if fl.Count == 1 {
			flattenInto(out, fl.Sub, prefix+fl.Name+".", base+fl.Offset)
			continue
		}
		for e := 0; e < fl.Count; e++ {
			flattenInto(out, fl.Sub,
				fmt.Sprintf("%s%s.%d.", prefix, fl.Name, e),
				base+fl.Offset+e*fl.Size)
		}
	}
}
