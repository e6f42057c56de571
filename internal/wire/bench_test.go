package wire

import (
	"fmt"
	"testing"

	"repro/internal/abi"
)

func BenchmarkLayout(b *testing.B) {
	s := testSchema()
	for i := 0; i < b.N; i++ {
		if _, err := Layout(s, &abi.SparcV8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeMeta(b *testing.B) {
	f := MustLayout(testSchema(), &abi.SparcV8)
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMeta(buf[:0], f)
	}
}

func BenchmarkDecodeMeta(b *testing.B) {
	enc := EncodeMeta(MustLayout(testSchema(), &abi.SparcV8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMeta(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatch(b *testing.B) {
	w := MustLayout(testSchema(), &abi.SparcV8)
	e := MustLayout(testSchema(), &abi.X86)
	for i := 0; i < b.N; i++ {
		if m := Match(w, e); !m.Exact() {
			b.Fatal("match failed")
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	f := MustLayout(testSchema(), &abi.SparcV8)
	for i := 0; i < b.N; i++ {
		if f.Fingerprint() == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

// BenchmarkFieldLookup is one by-name resolution: the first and the last
// field of the seven-field mixed record, a name the format does not
// have, and the last of 400 fields.  The rows should read alike.
func BenchmarkFieldLookup(b *testing.B) {
	mixed := MustLayout(&Schema{Name: "mixed", Fields: []FieldSpec{
		{Name: "node", Type: abi.Int, Count: 1},
		{Name: "timestamp", Type: abi.Double, Count: 1},
		{Name: "iter", Type: abi.Long, Count: 1},
		{Name: "tag", Type: abi.Char, Count: 16},
		{Name: "residual", Type: abi.Float, Count: 1},
		{Name: "flags", Type: abi.UInt, Count: 1},
		{Name: "values", Type: abi.Double, Count: 7},
	}}, &abi.X86x64)
	wide := &Schema{Name: "wide", Fields: make([]FieldSpec, 400)}
	for i := range wide.Fields {
		wide.Fields[i] = FieldSpec{Name: fmt.Sprintf("field_%03d", i), Type: abi.Int, Count: 1}
	}
	for _, c := range []struct {
		name, field string
		f           *Format
		found       bool
	}{
		{"first", "node", mixed, true},
		{"last", "values", mixed, true},
		{"absent", "valuez", mixed, false},
		{"last-of-400", "field_399", MustLayout(wide, &abi.X86x64), true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (c.f.FieldByName(c.field) != nil) != c.found {
					b.Fatalf("FieldByName(%q) found = %v", c.field, !c.found)
				}
			}
		})
	}
}
