package pbio

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/transport"
)

func TestReaderRejectsCorruptStream(t *testing.T) {
	ctx := ctxFor(t, "x86")
	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("this is not a pbio stream at all...")},
		{"bad magic", []byte{0xff, 0xff, 2, 0, 0, 0, 1, 0, 0, 0, 0}},
		{"truncated header", []byte{0x50}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := ctx.NewReader(bytes.NewReader(c.data))
			if _, err := r.Read(); err == nil || err == io.EOF {
				t.Errorf("corrupt stream: %v", err)
			}
		})
	}
	// Empty stream is clean EOF.
	if _, err := ctx.NewReader(bytes.NewReader(nil)).Read(); err != io.EOF {
		t.Errorf("empty stream: %v, want EOF", err)
	}
}

func TestReaderTruncatedMidRecord(t *testing.T) {
	sctx := ctxFor(t, "sparc-v8")
	f, err := sctx.Register("mixed", mixedFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	rec := f.NewRecord()
	for i := 0; i < 2; i++ {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	rctx := ctxFor(t, "x86")
	data := buf.Bytes()[:buf.Len()-5]
	r := rctx.NewReader(bytes.NewReader(data))
	if _, err := r.Read(); err != nil {
		t.Fatalf("first record should be intact: %v", err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Errorf("truncated second record: %v, want a real error", err)
	}
}

func TestMessageViewInvalidatedSemantics(t *testing.T) {
	// Documented contract: a View aliases the receive buffer and is only
	// valid until the next Read or View.  Verify the aliasing (first
	// view's data matches first record at read time).
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ctx.NewWriter(&buf)
	for i := 0; i < 2; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("x", 0, int64(i+1))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := ctx.NewReader(&buf)
	m1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	v1, ok, err := m1.View(f)
	if err != nil || !ok {
		t.Fatalf("View: %v, %v", ok, err)
	}
	if x, _ := v1.Int("x", 0); x != 1 {
		t.Errorf("first view x = %d", x)
	}
	// Decode (copying) keeps data past the next Read.
	owned, err := m1.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if x, _ := owned.Int("x", 0); x != 1 {
		t.Errorf("owned record corrupted by next Read: x = %d", x)
	}
}

// The tests below pin the lifetime contract of the record View returns:
// it belongs to the reader, which reuses it, and the layout verdict
// behind it is remembered per (wire format, expected layout) pointer
// pair.

// viewStream writes n single-int records (x = 1..n) of format "v" from
// an x86 context and returns the stream.
func viewStream(t *testing.T, n int) []byte {
	t.Helper()
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ctx.NewWriter(&buf)
	for i := 0; i < n; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("x", 0, int64(i+1))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func mustView(t *testing.T, m *Message, f *Format) *Record {
	t.Helper()
	rec, ok, err := m.View(f)
	if err != nil || !ok {
		t.Fatalf("View through %q: ok=%v err=%v", f.Name(), ok, err)
	}
	return rec
}

func TestViewReusesReaderOwnedRecord(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	r := ctx.NewReader(bytes.NewReader(viewStream(t, 2)))
	var seen [2]*Record
	for i := range seen {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = mustView(t, m, f)
		if x, _ := seen[i].Int("x", 0); x != int64(i+1) {
			t.Errorf("view %d reads x = %d, want %d", i, x, i+1)
		}
	}
	if seen[0] != seen[1] {
		t.Errorf("consecutive Read+View returned distinct records %p and %p; want the reader's one reused", seen[0], seen[1])
	}
}

// The benchmark's oracle views a message it is still holding a view of
// through a layout-identical format of a second context.  The earlier
// result must keep reading the same bytes and the same values.
func TestViewThroughTwinFormatKeepsEarlierResult(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := ctxFor(t, "x86").Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ctx.NewReader(bytes.NewReader(viewStream(t, 1))).Read()
	if err != nil {
		t.Fatal(err)
	}
	first := mustView(t, m, f)
	before := append([]byte(nil), first.Bytes()...)
	second := mustView(t, m, twin)
	if !bytes.Equal(first.Bytes(), before) || !bytes.Equal(second.Bytes(), before) {
		t.Errorf("bytes after a second View: first % x, second % x, want % x", first.Bytes(), second.Bytes(), before)
	}
	if x, err := first.Int("x", 0); err != nil || x != 1 {
		t.Errorf("earlier view reads x = %d, %v after a second View; want 1", x, err)
	}
}

// A refused View leaves the record a previous View returned alone, and
// its verdict is remembered like an accepted one: whatever the field
// count, the second refusal is answered from the format's slot state —
// shown by poisoning the verdict and watching View believe it.
func TestViewRefusalIsMemoisedAndLeavesRecordAlone(t *testing.T) {
	for _, fields := range []int{2, 400} {
		t.Run(fmt.Sprint(fields, "fields"), func(t *testing.T) {
			specs := make([]FieldSpec, fields)
			for i := range specs {
				specs[i] = F(fmt.Sprintf("f%d", i), Int)
			}
			sctx := ctxFor(t, "sparc-v8")
			sf, err := sctx.Register("wide", specs...)
			if err != nil {
				t.Fatal(err)
			}
			rec := sf.NewRecord()
			rec.MustSetInt("f1", 0, 7)
			var buf bytes.Buffer
			if err := sctx.NewWriter(&buf).Write(rec); err != nil {
				t.Fatal(err)
			}
			// Same sizes and offsets, opposite byte order: refused.
			rctx := ctxFor(t, "x86")
			rf, err := rctx.Register("wide", specs...)
			if err != nil {
				t.Fatal(err)
			}
			r := rctx.NewReader(&buf)
			m, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			held := mustView(t, m, sf)
			if _, ok, err := m.View(rf); ok || err != nil {
				t.Fatalf("View across byte orders: ok=%v err=%v, want a refusal", ok, err)
			}
			if held.Format() != sf || !bytes.Equal(held.Bytes(), rec.Bytes()) {
				t.Error("a refused View disturbed the record an earlier View returned")
			}
			if x, _ := held.Int("f1", 0); x != 7 {
				t.Errorf("held view reads f1 = %d after a refused View, want 7", x)
			}
			st := m.state()
			if st.viewNF != rf.wf || st.same {
				t.Fatalf("layout verdict after a refusal = (%p, %v), want (%p, false)", st.viewNF, st.same, rf.wf)
			}
			st.same = true
			if _, ok, _ := m.View(rf); !ok {
				t.Error("second View of the same format pair compared the layouts again instead of consulting the format's state")
			}
		})
	}
}

// Messages built without a Reader (m.r == nil) have no per-format state
// to consult; they compare layouts every time and view into their own
// record.
func TestViewOfReaderlessMessage(t *testing.T) {
	ctx := ctxFor(t, "x86")
	f, err := ctx.Register("v", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	other, err := ctx.Register("w", F("x", Int), F("y", Int))
	if err != nil {
		t.Fatal(err)
	}
	rec := f.NewRecord()
	rec.MustSetInt("x", 0, 42)
	m := &Message{ctx: ctx, msg: transport.Message{Slot: transport.Slot{Format: f.wf}, Data: rec.Bytes()}}
	for i := 0; i < 2; i++ {
		v := mustView(t, m, f)
		if x, _ := v.Int("x", 0); x != 42 || &v.Bytes()[0] != &rec.Bytes()[0] {
			t.Errorf("view %d: x = %d, aliasing the source: %v", i, x, &v.Bytes()[0] == &rec.Bytes()[0])
		}
		if _, ok, err := m.View(other); ok || err != nil {
			t.Errorf("view %d through a different layout: ok=%v err=%v, want a refusal", i, ok, err)
		}
	}
}

// A stream that alternates formats (A, B, A) keeps one layout verdict per
// format, re-evaluates it when the expected format changes and never
// answers for the wrong pair.
func TestViewAcrossFormatChanges(t *testing.T) {
	ctx := ctxFor(t, "x86")
	a, err := ctx.Register("a", F("x", Int))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Register("b", F("x", Int), F("y", Double))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := ctx.NewWriter(&buf)
	order := []*Format{a, b, a}
	for i, f := range order {
		rec := f.NewRecord()
		rec.MustSetInt("x", 0, int64(10+i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	r := ctx.NewReader(&buf)
	for i, f := range order {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		wrong := a
		if f == a {
			wrong = b
		}
		if _, ok, err := m.View(wrong); ok || err != nil {
			t.Errorf("record %d (%q) viewed through %q: ok=%v err=%v, want a refusal", i, f.Name(), wrong.Name(), ok, err)
		}
		v := mustView(t, m, f)
		if x, _ := v.Int("x", 0); x != int64(10+i) || v.Format() != f {
			t.Errorf("record %d: x = %d through %q, want %d through %q", i, x, v.Format().Name(), 10+i, f.Name())
		}
		if st := m.state(); st.viewNF != f.wf || !st.same {
			t.Errorf("record %d: the format's layout verdict does not describe the pair just viewed", i)
		}
	}
}

func TestContextPlanCacheConcurrency(t *testing.T) {
	// Many goroutines decoding the same wire format through one context
	// must share plans/programs without racing (run with -race).
	sctx := ctxFor(t, "sparc-v8")
	f, err := sctx.Register("mixed", mixedFields()...)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	w := sctx.NewWriter(&stream)
	rec := f.NewRecord()
	fillMixed(t, rec)
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	raw := stream.Bytes()

	for _, mode := range []ConvMode{Generated, Interpreted} {
		rctx := ctxFor(t, "x86", WithConversion(mode))
		rf, err := rctx.Register("mixed", mixedFields()...)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					r := rctx.NewReader(bytes.NewReader(raw))
					m, err := r.Read()
					if err != nil {
						t.Error(err)
						return
					}
					got, err := m.Decode(rf)
					if err != nil {
						t.Error(err)
						return
					}
					if v, _ := got.Int("node", 0); v != 12 {
						t.Errorf("node = %d", v)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestWriterMultipleFormatsInterleaved(t *testing.T) {
	sctx := ctxFor(t, "sparc-v9-64")
	rctx := ctxFor(t, "x86")
	fa, _ := sctx.Register("a", F("x", Long))
	fb, _ := sctx.Register("b", Array("s", Char, 4))
	var buf bytes.Buffer
	w := sctx.NewWriter(&buf)
	for i := 0; i < 4; i++ {
		ra := fa.NewRecord()
		ra.MustSetInt("x", 0, int64(i)<<33) // needs 8-byte long on the wire
		if err := w.Write(ra); err != nil {
			t.Fatal(err)
		}
		rb := fb.NewRecord()
		rb.MustSetString("s", "ab")
		if err := w.Write(rb); err != nil {
			t.Fatal(err)
		}
	}
	// Receiver expects a narrower long: values above 2^32 truncate (C
	// semantics) — use a matching LP64 receiver to keep them.
	rfa, _ := rctx.Register("a", F("x", LongLong))
	_ = rfa // name mismatch exercise below
	r := rctx.NewReader(&buf)
	for i := 0; i < 4; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if m.FormatName() != "a" {
			t.Fatalf("message %d: format %q", i, m.FormatName())
		}
		// Decode into a same-name Long field (4 bytes on x86): the value
		// truncates — verify deterministic C-like behavior.
		rf, _ := rctx.Register("a", F("x", Long))
		rec, err := m.Decode(rf)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := rec.Int("x", 0); v != 0 {
			t.Errorf("truncated high bits remain: %d", v)
		}
		if m, err = r.Read(); err != nil {
			t.Fatal(err)
		}
		if m.FormatName() != "b" {
			t.Fatalf("message %d: format %q", i, m.FormatName())
		}
	}
}
