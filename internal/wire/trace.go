package wire

import "repro/internal/abi"

// Optional wire-level trace context.
//
// Distributed tracing context rides PBIO streams as an ordinary record
// field: a sampled sender transmits its records under an extended format
// whose last field is TraceFieldName — three 64-bit words in the sender's
// native byte order.  This is the paper's type-extension mechanism used
// on ourselves: receivers that know nothing about tracing match fields by
// name, silently ignore the extra field, and decode the record exactly as
// if it were untraced, while tracing-aware hops (relay, receiver) read
// the context straight out of the native bytes at a known offset.
//
// Word layout (all in the format's byte order):
//
//	[0] trace ID      — identifies the message end to end across hops
//	[1] parent span   — the sender's root span ID, parent of every
//	                    downstream span recorded for this message
//	[2] send time     — sender wall clock, nanoseconds since the Unix
//	                    epoch, stamped immediately before the frame write
//	                    (the wire-phase anchor; see tracectx)
//
// The helpers below are the single home of the field's byte-level
// encoding, keeping byte-order arithmetic inside the layout layer as
// endiancheck demands.

// TraceFieldName is the reserved wire name of the trace-context field.
// The leading underscores keep it clear of application field names (which
// pbio struct tags cannot produce) and make its role obvious in format
// dumps.
const TraceFieldName = "__pbio_trace"

// TraceFieldWords is the number of 64-bit words in the trace field.
const TraceFieldWords = 3

// TraceContext is the decoded trace field of one record.
type TraceContext struct {
	TraceID    uint64
	ParentSpan uint64
	SendUnixNs uint64
}

// TraceFieldOffset returns the byte offset of the trace-context field in
// f, or -1 when f carries none.  Only a correctly-shaped trailing field
// counts: top-level, named TraceFieldName, a TraceFieldWords-element
// array of 8-byte integers — anything else (an application field that
// happens to share the name, a corrupted meta block) is treated as
// absent rather than misread.
func TraceFieldOffset(f *Format) int {
	c := f.Cursor(TraceFieldName)
	if c == nil || c.Field != &f.Fields[len(f.Fields)-1] || c.Kind == KindStruct ||
		c.Count != TraceFieldWords || c.Size != 8 || !c.Fits {
		return -1
	}
	return c.Off
}

// TraceSchema returns a copy of s with the trace-context field appended,
// the schema a tracing sender lays out alongside the base format.
func TraceSchema(s *Schema) *Schema {
	out := &Schema{Name: s.Name, Fields: make([]FieldSpec, 0, len(s.Fields)+1)}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, FieldSpec{
		Name: TraceFieldName, Type: abi.ULongLong, Count: TraceFieldWords,
	})
	return out
}

// PutTraceContext stores tc into buf at the trace field offset off, in
// the format's byte order.
func PutTraceContext(buf []byte, order abi.Endian, off int, tc TraceContext) {
	order.PutUint64(buf[off:], tc.TraceID)
	order.PutUint64(buf[off+8:], tc.ParentSpan)
	order.PutUint64(buf[off+16:], tc.SendUnixNs)
}

// GetTraceContext reads the trace field of buf at offset off.  ok is
// false when buf is too short to hold the field (a corrupt record).
func GetTraceContext(buf []byte, order abi.Endian, off int) (TraceContext, bool) {
	if off < 0 || off+8*TraceFieldWords > len(buf) {
		return TraceContext{}, false
	}
	return TraceContext{
		TraceID:    order.Uint64(buf[off:]),
		ParentSpan: order.Uint64(buf[off+8:]),
		SendUnixNs: order.Uint64(buf[off+16:]),
	}, true
}
