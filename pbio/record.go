package pbio

import "repro/internal/native"

// Record is a native record image: the exact bytes a C program on the
// context's architecture would hold in memory, and the exact bytes a
// Writer puts on the wire.  Accessors read and write fields honoring the
// format's layout and byte order.
type Record struct {
	fmt *Format
	// rec is embedded by value: a native.Record is two words, and keeping
	// it inline halves the allocations of NewRecord, View and Sub.
	rec native.Record
}

// NewRecord allocates a zeroed record of this format.
func (f *Format) NewRecord() *Record {
	return &Record{fmt: f, rec: native.Record{Format: f.wf, Buf: make([]byte, f.wf.Size)}}
}

// Format returns the record's format.
func (r *Record) Format() *Format { return r.fmt }

// Bytes returns the record's native image.  Mutating it mutates the
// record.
func (r *Record) Bytes() []byte { return r.rec.Buf }

// Clone returns an independent copy of the record.
func (r *Record) Clone() *Record {
	return &Record{fmt: r.fmt, rec: *r.rec.Clone()}
}

// SetInt stores a signed or unsigned integer into element i of the named
// field, truncating to the field width like a C assignment.
func (r *Record) SetInt(name string, i int, v int64) error { return r.rec.SetInt(name, i, v) }

// Int loads element i of the named integer field.
func (r *Record) Int(name string, i int) (int64, error) { return r.rec.Int(name, i) }

// SetFloat stores a floating-point value into element i of the named
// field.
func (r *Record) SetFloat(name string, i int, v float64) error { return r.rec.SetFloat(name, i, v) }

// Float loads element i of the named floating-point field.
func (r *Record) Float(name string, i int) (float64, error) { return r.rec.Float(name, i) }

// SetString stores s into a char-array field, NUL-padded and truncated to
// the field length.
func (r *Record) SetString(name, s string) error { return r.rec.SetString(name, s) }

// String loads a char-array field, stopping at the first NUL.
func (r *Record) String(name string) (string, error) { return r.rec.String(name) }

// MustSetInt is SetInt that panics on error.
func (r *Record) MustSetInt(name string, i int, v int64) { r.rec.MustSetInt(name, i, v) }

// MustSetFloat is SetFloat that panics on error.
func (r *Record) MustSetFloat(name string, i int, v float64) { r.rec.MustSetFloat(name, i, v) }

// MustSetString is SetString that panics on error.
func (r *Record) MustSetString(name, s string) { r.rec.MustSetString(name, s) }

// Sub returns element i of a nested structure field as a Record view:
// reads and writes through it access the containing record's bytes
// directly.
func (r *Record) Sub(name string, i int) (*Record, error) {
	nr, err := r.rec.Sub(name, i)
	if err != nil {
		return nil, err
	}
	return &Record{fmt: &Format{ctx: r.fmt.ctx, wf: nr.Format}, rec: *nr}, nil
}

// MustSub is Sub that panics on error.
func (r *Record) MustSub(name string, i int) *Record {
	s, err := r.Sub(name, i)
	if err != nil {
		panic(err)
	}
	return s
}

// Map renders the record as nested Go maps, keyed by field name — the
// convenient form for generic consumers (monitors, dashboards, loggers)
// that discovered the format at run time.  Scalars map to int64/uint64/
// float64/string; arrays to slices; nested structures to []map or a
// single map for scalar struct fields.
func (r *Record) Map() map[string]any {
	out := make(map[string]any, len(r.fmt.wf.Fields))
	for _, fi := range fieldInfos(r.fmt.wf) {
		out[fi.Name] = r.fieldValue(fi)
	}
	return out
}

func (r *Record) fieldValue(fi FieldInfo) any {
	switch {
	case fi.Struct:
		if fi.Count == 1 {
			return r.MustSub(fi.Name, 0).Map()
		}
		subs := make([]map[string]any, fi.Count)
		for i := range subs {
			subs[i] = r.MustSub(fi.Name, i).Map()
		}
		return subs
	case fi.Type == Char:
		s, _ := r.String(fi.Name)
		return s
	case fi.Type == Float || fi.Type == Double:
		if fi.Count == 1 {
			v, _ := r.Float(fi.Name, 0)
			return v
		}
		vs := make([]float64, fi.Count)
		for i := range vs {
			vs[i], _ = r.Float(fi.Name, i)
		}
		return vs
	case fi.Type == UShort || fi.Type == UInt || fi.Type == ULong || fi.Type == ULongLong:
		if fi.Count == 1 {
			v, _ := r.Int(fi.Name, 0)
			return uint64(v)
		}
		vs := make([]uint64, fi.Count)
		for i := range vs {
			v, _ := r.Int(fi.Name, i)
			vs[i] = uint64(v)
		}
		return vs
	default:
		if fi.Count == 1 {
			v, _ := r.Int(fi.Name, 0)
			return v
		}
		vs := make([]int64, fi.Count)
		for i := range vs {
			vs[i], _ = r.Int(fi.Name, i)
		}
		return vs
	}
}
