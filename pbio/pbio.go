// Package pbio is a Go implementation of PBIO (Portable Binary I/O), the
// Natural Data Representation communication library from "Efficient Wire
// Formats for High Performance Computing" (Bustamante, Eisenhauer, Schwan,
// Widener — SC 2000).
//
// # The idea
//
// Conventional wire formats (XDR, CDR/IIOP, XML) make every sender encode
// into a common representation and every receiver decode out of it.  PBIO
// instead transmits records in the sender's native memory layout — the
// Natural Data Representation — preceded (once per format) by
// meta-information describing that layout: field names, types, sizes,
// offsets, and byte order.  Senders therefore do no encoding at all.
// Receivers compare the incoming wire format with their own native
// format, match fields by name, and convert only where the layouts
// actually differ; the conversion routine is generated at run time, once
// per wire format, and on homogeneous exchanges the record is usable
// directly out of the receive buffer.
//
// # Usage
//
// A Context holds the (possibly simulated) native architecture and the
// conversion engine.  Formats are registered from field lists or derived
// from Go structs; Writers transmit records; Readers receive messages,
// expose the incoming format for inspection (reflection), and decode into
// expected formats or Go structs (type extension: unknown incoming fields
// are ignored, missing ones are zeroed).
//
//	ctx, _ := pbio.NewContext()
//	f, _ := ctx.Register("sample",
//		pbio.F("x", pbio.Int),
//		pbio.Array("values", pbio.Double, 64),
//	)
//	w := ctx.NewWriter(conn)
//	rec := f.NewRecord()
//	rec.SetInt("x", 0, 7)
//	w.Write(rec)
//
// Because this reproduction runs on one machine, heterogeneity is
// simulated: a Context can be pinned to any modelled architecture
// (SPARC, x86, MIPS, Alpha, …) and its records are laid out — byte
// order, sizes, alignment padding — exactly as a C compiler on that
// machine would lay them out.
package pbio

import (
	"fmt"
	"sync"

	"repro/internal/abi"
	"repro/internal/dcg"
	"repro/internal/flightrec"
	"repro/internal/fmtserver"
	"repro/internal/telemetry"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Type identifies the C basic type of a record field.
type Type uint8

// Field types, in C terms.  Long (and ULong) vary in size across
// architectures; the conversion machinery bridges the difference.
const (
	Char Type = iota
	Short
	Int
	Long
	LongLong
	UShort
	UInt
	ULong
	ULongLong
	Float
	Double
)

// ctype maps a public Type to the internal C type enum.
func (t Type) ctype() (abi.CType, error) {
	switch t {
	case Char:
		return abi.Char, nil
	case Short:
		return abi.Short, nil
	case Int:
		return abi.Int, nil
	case Long:
		return abi.Long, nil
	case LongLong:
		return abi.LongLong, nil
	case UShort:
		return abi.UShort, nil
	case UInt:
		return abi.UInt, nil
	case ULong:
		return abi.ULong, nil
	case ULongLong:
		return abi.ULongLong, nil
	case Float:
		return abi.Float, nil
	case Double:
		return abi.Double, nil
	}
	return 0, fmt.Errorf("pbio: invalid field type %d", t)
}

func typeFromCType(ct abi.CType) Type {
	switch ct {
	case abi.Char:
		return Char
	case abi.Short:
		return Short
	case abi.Int:
		return Int
	case abi.Long:
		return Long
	case abi.LongLong:
		return LongLong
	case abi.UShort:
		return UShort
	case abi.UInt:
		return UInt
	case abi.ULong:
		return ULong
	case abi.ULongLong:
		return ULongLong
	case abi.Float:
		return Float
	}
	return Double
}

// String returns the C spelling of the type.
func (t Type) String() string {
	ct, err := t.ctype()
	if err != nil {
		return fmt.Sprintf("type(%d)", uint8(t))
	}
	return ct.String()
}

// FieldSpec declares one field of a record format.
type FieldSpec struct {
	Name  string
	Type  Type
	Count int // 1 for scalars, >1 for fixed-size arrays
	// Sub, when non-empty, makes this a nested structure field (Type is
	// ignored): the record embeds Count sub-records with these fields,
	// laid out as a C compiler would lay out a nested struct.
	Sub []FieldSpec
}

// F declares a scalar field.
func F(name string, t Type) FieldSpec { return FieldSpec{Name: name, Type: t, Count: 1} }

// Array declares a fixed-size array field of n elements.
func Array(name string, t Type, n int) FieldSpec { return FieldSpec{Name: name, Type: t, Count: n} }

// Struct declares a nested structure field.
func Struct(name string, fields ...FieldSpec) FieldSpec {
	return FieldSpec{Name: name, Count: 1, Sub: append([]FieldSpec{}, fields...)}
}

// StructArray declares a fixed-size array of nested structures.
func StructArray(name string, n int, fields ...FieldSpec) FieldSpec {
	return FieldSpec{Name: name, Count: n, Sub: append([]FieldSpec{}, fields...)}
}

// ConvMode selects the receiver-side conversion engine.
type ConvMode int

const (
	// Generated uses run-time-generated conversion programs (the
	// paper's DCG path; default).
	Generated ConvMode = iota
	// Interpreted uses the table-driven interpreted converter (the
	// paper's pre-DCG baseline, kept for comparison).
	Interpreted
)

// String names the conversion mode.
func (m ConvMode) String() string {
	if m == Interpreted {
		return "interpreted"
	}
	return "generated"
}

// Context carries the native architecture model and the conversion
// machinery shared by Writers, Readers and Formats.
type Context struct {
	arch  abi.Arch
	mode  ConvMode
	cache *dcg.Cache        // the one (wire, expected) pair table: plans, and under Generated their programs
	fmtsv *fmtserver.Client // nil: in-band meta (the default)

	// metaCache deduplicates meta decoding across every Reader of this
	// context, and — because identical meta bytes resolve to one
	// *wire.Format pointer — lets streams share what a format builds
	// lazily (fingerprint, cursor table).
	metaCache *transport.MetaCache

	// registrarFn/resolverFn adapt fmtsv for the transport layer.  Built
	// once in NewContext so equipping a Writer/Reader shares the closures
	// instead of allocating a pair per stream.
	registrarFn func(*wire.Format) (uint64, error)
	resolverFn  func(uint64) (*wire.Format, error)

	// Telemetry (see WithTelemetry).  met is never nil — it defaults to
	// the shared no-op set; tel and tmet are nil when disabled.
	tel  *telemetry.Registry
	met  *ctxMetrics
	tmet *transport.Metrics

	// Cross-hop tracing (see WithTracing).  Nil when tracing is off; the
	// wire path then pays one nil-check per send and one boolean test per
	// receive.
	tracer *tracectx.Tracer

	// flight, when set (WithFlightRecorder), journals the context's
	// discrete events — format registrations, DCG compiles, wire faults.
	// Nil-safe: a nil recorder is a valid no-op sink.
	flight *flightrec.Recorder
}

// Option configures a Context.
type Option func(*Context) error

// WithArch pins the context to a modelled native architecture by name:
// "sparc-v8", "sparc-v9", "sparc-v9-64", "x86", "x86-64", "mips-o32",
// "mips-n64", "alpha", "strongarm" or "i960".  The default is "x86-64".
func WithArch(name string) Option {
	return func(c *Context) error {
		a, err := abi.ByName(name)
		if err != nil {
			return err
		}
		c.arch = a
		return nil
	}
}

// WithFormatServer connects the context to a PBIO format server (see
// cmd/pbio-fmtd).  Writers then tag streams with small global format IDs
// instead of full in-band meta-information, and Readers resolve unknown
// IDs through the server — the deployment model of the original PBIO,
// useful when many components exchange the same formats over many
// connections or files.
func WithFormatServer(addr string) Option {
	return func(c *Context) error {
		client, err := fmtserver.Dial(addr)
		if err != nil {
			return err
		}
		c.fmtsv = client
		return nil
	}
}

// WithConversion selects the conversion engine (default Generated).
func WithConversion(mode ConvMode) Option {
	return func(c *Context) error {
		if mode != Generated && mode != Interpreted {
			return fmt.Errorf("pbio: invalid conversion mode %d", mode)
		}
		c.mode = mode
		return nil
	}
}

// NewContext returns a context with the given options applied.
func NewContext(opts ...Option) (*Context, error) {
	c := &Context{
		arch:      abi.X86x64,
		mode:      Generated,
		cache:     dcg.NewCache(),
		metaCache: transport.NewMetaCache(),
	}
	for _, o := range opts {
		if err := o(c); err != nil {
			return nil, err
		}
	}
	c.initTelemetry()
	if c.fmtsv != nil {
		c.fmtsv.SetTelemetry(c.tel)
		c.fmtsv.SetTracer(c.tracer)
		c.fmtsv.SetFlight(c.flight)
		c.registrarFn = func(f *wire.Format) (uint64, error) {
			id, err := c.fmtsv.Register(f)
			return uint64(id), err
		}
		c.resolverFn = func(id uint64) (*wire.Format, error) {
			return c.fmtsv.Lookup(fmtserver.FormatID(id))
		}
	}
	return c, nil
}

// ArchName returns the name of the context's native architecture model.
func (c *Context) ArchName() string { return c.arch.Name }

// Register defines a record format from field declarations, laid out for
// the context's native architecture.
func (c *Context) Register(name string, fields ...FieldSpec) (*Format, error) {
	s, err := buildSchema(name, fields)
	if err != nil {
		return nil, err
	}
	wf, err := wire.Layout(s, &c.arch)
	if err != nil {
		return nil, err
	}
	c.flight.Emit(flightrec.KindMetaRegister, wf.Name, 0, int64(wf.Size), 0)
	return &Format{ctx: c, wf: wf, met: c.bindFormatMetrics(wf.Name)}, nil
}

func buildSchema(name string, fields []FieldSpec) (*wire.Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("pbio: format %q has no fields", name)
	}
	s := &wire.Schema{Name: name, Fields: make([]wire.FieldSpec, len(fields))}
	for i, f := range fields {
		if f.Sub != nil {
			sub, err := buildSchema(name+"."+f.Name, f.Sub)
			if err != nil {
				return nil, err
			}
			s.Fields[i] = wire.FieldSpec{Name: f.Name, Count: f.Count, Sub: sub}
			continue
		}
		ct, err := f.Type.ctype()
		if err != nil {
			return nil, fmt.Errorf("pbio: field %q: %w", f.Name, err)
		}
		s.Fields[i] = wire.FieldSpec{Name: f.Name, Type: ct, Count: f.Count}
	}
	return s, nil
}

// Format is a registered record format bound to a context.
type Format struct {
	ctx *Context
	wf  *wire.Format
	met formatMetrics // resolved at Register; zero value when telemetry is off

	// Trace-extended variant of the format (see trace.go), laid out on
	// first sampled send and reused for every traced record after.
	traceOnce sync.Once
	traceWF   *wire.Format
	traceOff  int
	traceErr  error
}

// Name returns the format name.
func (f *Format) Name() string { return f.wf.Name }

// Size returns the native record size in bytes, including padding.
func (f *Format) Size() int { return f.wf.Size }

// Describe renders the format's layout in human-readable form.
func (f *Format) Describe() string { return f.wf.String() }

// Fields returns descriptions of the format's fields.
func (f *Format) Fields() []FieldInfo { return fieldInfos(f.wf) }

// FieldInfo describes one field of a format — the information PBIO's
// reflection support exposes for incoming messages.
type FieldInfo struct {
	Name   string
	Type   Type
	Count  int
	Size   int // element size in bytes
	Offset int // byte offset within the record
	// Struct is true for nested structure fields; Fields then describes
	// the nested format and Type is meaningless.
	Struct bool
	Fields []FieldInfo
}

// Spec converts the field description back into a declaration, so a
// receiver can re-register an incoming format locally (see pbio-dump and
// the visualization example).
func (fi FieldInfo) Spec() FieldSpec {
	spec := FieldSpec{Name: fi.Name, Type: fi.Type, Count: fi.Count}
	if fi.Struct {
		spec.Sub = make([]FieldSpec, len(fi.Fields))
		for i, sub := range fi.Fields {
			spec.Sub[i] = sub.Spec()
		}
	}
	return spec
}

func fieldInfos(wf *wire.Format) []FieldInfo {
	out := make([]FieldInfo, len(wf.Fields))
	for i := range wf.Fields {
		fl := &wf.Fields[i]
		out[i] = FieldInfo{
			Name:   fl.Name,
			Count:  fl.Count,
			Size:   fl.Size,
			Offset: fl.Offset,
		}
		if fl.IsStruct() {
			out[i].Struct = true
			out[i].Fields = fieldInfos(fl.Sub)
		} else {
			out[i].Type = typeFromCType(fl.Type)
		}
	}
	return out
}
