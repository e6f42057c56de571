package pbio

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// mixedFields is the paper's mixed-field record shape.
func mixedFields() []FieldSpec {
	return []FieldSpec{
		F("node", Int),
		F("timestamp", Double),
		F("iter", Long),
		Array("tag", Char, 16),
		F("residual", Float),
		F("flags", UInt),
		Array("values", Double, 8),
	}
}

func ctxFor(t *testing.T, arch string, opts ...Option) *Context {
	t.Helper()
	ctx, err := NewContext(append([]Option{WithArch(arch)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func fillMixed(t *testing.T, rec *Record) {
	t.Helper()
	rec.MustSetInt("node", 0, 12)
	rec.MustSetFloat("timestamp", 0, 1234.5)
	rec.MustSetInt("iter", 0, -9)
	rec.MustSetString("tag", "probe-7")
	rec.MustSetFloat("residual", 0, 0.25)
	rec.MustSetInt("flags", 0, 3)
	for i := 0; i < 8; i++ {
		rec.MustSetFloat("values", i, float64(i)*1.5)
	}
}

func checkMixed(t *testing.T, rec *Record) {
	t.Helper()
	if v, _ := rec.Int("node", 0); v != 12 {
		t.Errorf("node = %d", v)
	}
	if v, _ := rec.Float("timestamp", 0); v != 1234.5 {
		t.Errorf("timestamp = %v", v)
	}
	if v, _ := rec.Int("iter", 0); v != -9 {
		t.Errorf("iter = %d", v)
	}
	if v, _ := rec.String("tag"); v != "probe-7" {
		t.Errorf("tag = %q", v)
	}
	if v, _ := rec.Float("residual", 0); v != 0.25 {
		t.Errorf("residual = %v", v)
	}
	if v, _ := rec.Int("flags", 0); v != 3 {
		t.Errorf("flags = %d", v)
	}
	for i := 0; i < 8; i++ {
		if v, _ := rec.Float("values", i); v != float64(i)*1.5 {
			t.Errorf("values[%d] = %v", i, v)
		}
	}
}

func TestHeterogeneousExchange(t *testing.T) {
	// The paper's canonical scenario: a sparc writer, an x86 reader.
	for _, mode := range []ConvMode{Generated, Interpreted} {
		t.Run(mode.String(), func(t *testing.T) {
			sctx := ctxFor(t, "sparc-v8")
			rctx := ctxFor(t, "x86", WithConversion(mode))

			sf, err := sctx.Register("mixed", mixedFields()...)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := rctx.Register("mixed", mixedFields()...)
			if err != nil {
				t.Fatal(err)
			}
			if sf.Size() == rf.Size() {
				t.Fatalf("sparc and x86 sizes equal (%d); heterogeneity not simulated", sf.Size())
			}

			var buf bytes.Buffer
			w := sctx.NewWriter(&buf)
			rec := sf.NewRecord()
			fillMixed(t, rec)
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}

			r := rctx.NewReader(&buf)
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if m.FormatName() != "mixed" {
				t.Errorf("format name %q", m.FormatName())
			}
			if m.SameLayout(rf) {
				t.Error("sparc layout reported same as x86")
			}
			got, err := m.Decode(rf)
			if err != nil {
				t.Fatal(err)
			}
			checkMixed(t, got)
		})
	}
}

func TestHomogeneousZeroCopyView(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("mixed", mixedFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ctx.NewWriter(&buf)
	rec := f.NewRecord()
	fillMixed(t, rec)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := ctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	view, ok, err := m.View(f)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("homogeneous exchange did not offer a zero-copy view")
	}
	checkMixed(t, view)
}

func TestViewRefusedWhenConversionNeeded(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	sf, _ := sctx.Register("mixed", mixedFields()...)
	rf, _ := rctx.Register("mixed", mixedFields()...)
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	rec := sf.NewRecord()
	fillMixed(t, rec)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.View(rf); ok {
		t.Error("View offered for heterogeneous layouts")
	}
}

func TestTypeExtensionUnexpectedField(t *testing.T) {
	// An evolved sender adds a field; the old receiver decodes without
	// disruption — the paper's §4.4 flexibility feature.
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	extended := append([]FieldSpec{F("new_diag", Double)}, mixedFields()...)
	sf, err := sctx.Register("mixed", extended...)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := rctx.Register("mixed", mixedFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	rec := sf.NewRecord()
	fillMixed(t, rec)
	rec.MustSetFloat("new_diag", 0, 42.0)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Decode(rf)
	if err != nil {
		t.Fatal(err)
	}
	checkMixed(t, got)
}

func TestMissingFieldZeroed(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	sf, _ := sctx.Register("mixed", mixedFields()[:3]...)
	rf, _ := rctx.Register("mixed", mixedFields()...)
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	rec := sf.NewRecord()
	rec.MustSetInt("node", 0, 5)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Decode(rf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Int("node", 0); v != 5 {
		t.Errorf("node = %d", v)
	}
	if v, _ := got.Float("values", 3); v != 0 {
		t.Errorf("missing values[3] = %v", v)
	}
	if s, _ := got.String("tag"); s != "" {
		t.Errorf("missing tag = %q", s)
	}
}

func TestReflectionOverIncomingFormat(t *testing.T) {
	// A receiver with no a-priori knowledge inspects the format.
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	sf, _ := sctx.Register("telemetry", F("t", Double), Array("sensors", Float, 4))
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	if err := w.Write(sf.NewRecord()); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	fields := m.Fields()
	if len(fields) != 2 {
		t.Fatalf("got %d fields", len(fields))
	}
	if fields[0].Name != "t" || fields[0].Type != Double || fields[0].Count != 1 {
		t.Errorf("field[0] = %+v", fields[0])
	}
	if fields[1].Name != "sensors" || fields[1].Type != Float || fields[1].Count != 4 {
		t.Errorf("field[1] = %+v", fields[1])
	}
	if !strings.Contains(m.DescribeFormat(), "telemetry") {
		t.Error("DescribeFormat missing format name")
	}
	if m.WireSize() != sf.Size() {
		t.Errorf("WireSize = %d, want %d", m.WireSize(), sf.Size())
	}
}

func TestMultipleRecordsAndFormats(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	f1, _ := sctx.Register("a", F("x", Int))
	f2, _ := sctx.Register("b", F("y", Double))
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		r1 := f1.NewRecord()
		r1.MustSetInt("x", 0, int64(i))
		if err := w.Write(r1); err != nil {
			t.Fatal(err)
		}
		r2 := f2.NewRecord()
		r2.MustSetFloat("y", 0, float64(i)+0.5)
		if err := w.Write(r2); err != nil {
			t.Fatal(err)
		}
	}
	rf1, _ := rctx.Register("a", F("x", Int))
	rf2, _ := rctx.Register("b", F("y", Double))
	r := rctx.NewReader(&buf)
	for i := 0; i < 3; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Decode(rf1)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := rec.Int("x", 0); v != int64(i) {
			t.Errorf("x = %d, want %d", v, i)
		}
		m, err = r.Read()
		if err != nil {
			t.Fatal(err)
		}
		rec, err = m.Decode(rf2)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := rec.Float("y", 0); v != float64(i)+0.5 {
			t.Errorf("y = %v", v)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("end of stream: %v, want EOF", err)
	}
}

func TestDecodeInto(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	rctx := ctxFor(t, "x86")
	sf, _ := sctx.Register("mixed", mixedFields()...)
	rf, _ := rctx.Register("mixed", mixedFields()...)
	other, _ := rctx.Register("other", F("z", Int))
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	rec := sf.NewRecord()
	fillMixed(t, rec)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	m, err := rctx.NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	out := rf.NewRecord()
	if err := m.DecodeInto(rf, out); err != nil {
		t.Fatal(err)
	}
	checkMixed(t, out)
	// Wrong-format destination rejected.
	if err := m.DecodeInto(rf, other.NewRecord()); err == nil {
		t.Error("cross-format DecodeInto accepted")
	}
}

func TestContextOptionsValidation(t *testing.T) {
	if _, err := NewContext(WithArch("pdp11")); err == nil {
		t.Error("unknown arch accepted")
	}
	if _, err := NewContext(WithConversion(ConvMode(9))); err == nil {
		t.Error("invalid conversion mode accepted")
	}
	ctx, err := NewContext(WithArch("alpha"), WithConversion(Interpreted))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.ArchName() != "alpha" {
		t.Errorf("ArchName = %q", ctx.ArchName())
	}
}

func TestRegisterValidation(t *testing.T) {
	ctx := ctxFor(t, "x86")
	if _, err := ctx.Register("empty"); err == nil {
		t.Error("empty format accepted")
	}
	if _, err := ctx.Register("bad", FieldSpec{Name: "x", Type: Type(99), Count: 1}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := ctx.Register("dup", F("x", Int), F("x", Int)); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := ctx.Register("zero", FieldSpec{Name: "x", Type: Int, Count: 0}); err == nil {
		t.Error("zero count accepted")
	}
	// The rest of what a literal spec can get wrong, rejected here at
	// registration (there is no compile-time check of spec literals).
	for name, spec := range map[string]FieldSpec{
		"empty field name":       F("", Int),
		"reserved character":     F("a<b", Int),
		"zero-length array":      Array("a", Int, 0),
		"negative array length":  Array("a", Int, -1),
		"struct with no fields":  Struct("h"),
		"zero-length struct arr": StructArray("p", 0, F("x", Int)),
		"duplicate in nested":    Struct("h", F("x", Int), F("x", Int)),
	} {
		if _, err := ctx.Register("r", F("ok", Int), spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCrossContextWriteRejected(t *testing.T) {
	c1 := ctxFor(t, "x86")
	c2 := ctxFor(t, "sparc-v8")
	f, _ := c2.Register("a", F("x", Int))
	w := c1.NewWriter(&bytes.Buffer{})
	if err := w.Write(f.NewRecord()); err == nil {
		t.Error("cross-context write accepted")
	}
}

func TestRecordCloneAndBytes(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, _ := ctx.Register("a", F("x", Int))
	r := f.NewRecord()
	r.MustSetInt("x", 0, 1)
	c := r.Clone()
	c.MustSetInt("x", 0, 2)
	if v, _ := r.Int("x", 0); v != 1 {
		t.Error("Clone aliases original")
	}
	if len(r.Bytes()) != f.Size() {
		t.Errorf("Bytes len %d != Size %d", len(r.Bytes()), f.Size())
	}
	if r.Format() != f {
		t.Error("Format() wrong")
	}
}

func TestFormatAccessors(t *testing.T) {
	ctx := ctxFor(t, "sparc-v8")
	f, _ := ctx.Register("mixed", mixedFields()...)
	if f.Name() != "mixed" {
		t.Errorf("Name = %q", f.Name())
	}
	if f.Size() != 112 { // sparc-v8 layout: computed in wire tests as 80 with values[4]; here values[8] adds 32
		t.Errorf("Size = %d, want 112", f.Size())
	}
	infos := f.Fields()
	if len(infos) != 7 || infos[3].Name != "tag" || infos[3].Count != 16 {
		t.Errorf("Fields() = %+v", infos)
	}
	if !strings.Contains(f.Describe(), "sparc-v8") {
		t.Error("Describe missing arch")
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		Char: "char", Short: "short", Int: "int", Long: "long",
		LongLong: "long long", UShort: "unsigned short", UInt: "unsigned int",
		ULong: "unsigned long", ULongLong: "unsigned long long",
		Float: "float", Double: "double",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(99).String() == "" {
		t.Error("invalid Type String empty")
	}
	if Generated.String() != "generated" || Interpreted.String() != "interpreted" {
		t.Error("ConvMode strings")
	}
}
