package wire

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/abi"
)

// linearField is the reference resolver: the scan FieldByName used to be.
func linearField(f *Format, name string) *Field {
	for i := range f.Fields {
		if f.Fields[i].Name == name {
			return &f.Fields[i]
		}
	}
	return nil
}

// wantKind re-derives a field's access class from its declaration.
func wantKind(fl *Field) Kind {
	switch {
	case fl.IsStruct():
		return KindStruct
	case fl.Type.Signed():
		return KindSigned
	case fl.Type.Integer():
		return KindUnsigned
	case fl.Type == abi.Char:
		return KindChar
	case fl.Type.Floating():
		return KindFloat
	}
	return KindOther
}

// absentNames returns names f must not resolve, each a near neighbour of
// one it has: empty, a strict prefix, a strict suffix, a same-length
// near-miss, and padded forms longer than 8 and than 64 bytes (past the
// three-word key, where only the string compare tells names apart).
func absentNames(f *Format) []string {
	out := []string{""}
	for i := range f.Fields {
		n := f.Fields[i].Name
		miss := []byte(n)
		miss[len(miss)/2] ^= 1
		out = append(out, n[:len(n)-1], n[1:], string(miss),
			n+"_padded_", n+strings.Repeat("x", 70), strings.Repeat("x", 70)+n,
			n[:1]+strings.Repeat("y", 70)+n[1:])
	}
	kept := out[:0]
	for _, n := range out {
		if linearField(f, n) == nil {
			kept = append(kept, n)
		}
	}
	return kept
}

// checkCursors holds every field of f — and, recursively, of each nested
// format, which has a table of its own — to the linear scan's answer.
func checkCursors(t *testing.T, f *Format) {
	t.Helper()
	for i := range f.Fields {
		fl := &f.Fields[i]
		want := linearField(f, fl.Name)
		c := f.Cursor(fl.Name)
		if c == nil {
			t.Fatalf("%s/%s: Cursor(%q) = nil", f.Name, f.Arch, fl.Name)
		}
		if c.Field != want || c.Off != want.Offset || c.Size != want.Size || c.Count != want.Count ||
			c.Kind != wantKind(want) || c.Order != f.Order || !c.Fits {
			t.Fatalf("%s/%s: Cursor(%q) = %+v, want field %+v", f.Name, f.Arch, fl.Name, *c, *want)
		}
		if got := f.FieldByName(fl.Name); got != want {
			t.Fatalf("%s/%s: FieldByName(%q) = %p, want %p", f.Name, f.Arch, fl.Name, got, want)
		}
		if fl.IsStruct() {
			checkCursors(t, fl.Sub)
		}
	}
	for _, n := range absentNames(f) {
		if c := f.Cursor(n); c != nil {
			t.Fatalf("%s/%s: Cursor(%q) resolved to %q", f.Name, f.Arch, n, c.Field.Name)
		}
		if f.FieldByName(n) != nil {
			t.Fatalf("%s/%s: FieldByName(%q) != nil", f.Name, f.Arch, n)
		}
	}
}

func TestCursorMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	iters := 100
	if testing.Short() {
		iters = 25
	}
	for i := 0; i < iters; i++ {
		s := RandomSchema(rng, "r", 24, 2)
		if i%3 == 0 {
			s = MutateSchema(rng, s)
		}
		for j := range abi.All {
			checkCursors(t, MustLayout(s, &abi.All[j]))
		}
	}
}

// TestCursorFieldNames covers what random schemas ("f0".."f23") do not:
// names of every length across the key's 1-3 / 4-7 / 8-16 / >16 byte
// cases, names that differ only in the middle of a long name (same key,
// different string), and formats of 1 and of 500 fields.
func TestCursorFieldNames(t *testing.T) {
	var names []string
	for n := 1; n <= 40; n++ {
		names = append(names, strings.Repeat("n", n), fmt.Sprintf("%0*d", n, n))
	}
	for i := 0; i < 20; i++ {
		names = append(names, fmt.Sprintf("long_common_prefix_%02d_long_common_suffix", i))
	}
	wide := make([]string, 500)
	for i := range wide {
		wide[i] = fmt.Sprintf("field_%03d", i)
	}
	for _, names := range [][]string{{"x"}, names, wide} {
		s := &Schema{Name: "named", Fields: make([]FieldSpec, len(names))}
		for i, n := range names {
			s.Fields[i] = FieldSpec{Name: n, Type: abi.Int, Count: 1 + i%3}
		}
		checkCursors(t, MustLayout(s, &abi.SparcV8))
		checkCursors(t, MustLayout(s, &abi.X86x64))
	}
}

// TestCursorOnUnvalidatedFormat pins what a Format literal that Validate
// would reject still answers: of a duplicated name the first field (as
// the linear scan did), an empty name resolves if a field has it, and a
// field reaching outside the record or of no defined type is resolved
// but flagged.
func TestCursorOnUnvalidatedFormat(t *testing.T) {
	f := &Format{Name: "bad", Order: abi.BigEndian, Size: 16, Fields: []Field{
		{Name: "dup", Type: abi.Int, Count: 1, Size: 4, Offset: 0},
		{Name: "dup", Type: abi.Double, Count: 1, Size: 8, Offset: 8},
		{Name: "", Type: abi.Char, Count: 4, Size: 1, Offset: 4},
		{Name: "past", Type: abi.UInt, Count: 2, Size: 4, Offset: 12},
		{Name: "before", Type: abi.UInt, Count: 1, Size: 4, Offset: -4},
		{Name: "untyped", Type: abi.CType(200), Count: 1, Size: 4, Offset: 0},
	}}
	if c := f.Cursor("dup"); c == nil || c.Field != &f.Fields[0] || c.Kind != KindSigned {
		t.Errorf("Cursor(dup) = %+v, want the first field", c)
	}
	if f.FieldByName("dup") != &f.Fields[0] {
		t.Error("FieldByName(dup) is not the first field")
	}
	if c := f.Cursor(""); c == nil || c.Field != &f.Fields[2] || c.Kind != KindChar {
		t.Errorf(`Cursor("") = %+v, want the empty-named field`, c)
	}
	for _, n := range []string{"past", "before"} {
		if c := f.Cursor(n); c == nil || c.Fits {
			t.Errorf("Cursor(%s) = %+v, want resolved with Fits false", n, c)
		}
	}
	if c := f.Cursor("untyped"); c == nil || c.Kind != KindOther || c.Kind.Integer() {
		t.Errorf("Cursor(untyped) = %+v, want KindOther", c)
	}
	if c := (&Format{Name: "empty"}).Cursor("x"); c != nil {
		t.Errorf("Cursor on a format without fields = %+v", c)
	}
}

// TestCursorLoadsAndStores round-trips every width in both byte orders
// through a Cursor, against abi.Endian used directly, and checks the zero
// Cursor — an absent field — loads as zero from any buffer.
func TestCursorLoadsAndStores(t *testing.T) {
	for _, order := range []abi.Endian{abi.BigEndian, abi.LittleEndian} {
		for _, size := range []int{1, 2, 4, 8} {
			c := &Cursor{Off: 3, Size: size, Count: 2, Order: order}
			buf := make([]byte, 3+2*size)
			v := uint64(0xf1e2d3c4b5a69788)
			c.PutUint(buf, 1, v)
			want := make([]byte, size)
			order.PutUint(want, size, v)
			if got := buf[3+size:]; string(got) != string(want) {
				t.Errorf("%v/%d: stored % x, want % x", order, size, got, want)
			}
			if got, w := c.Uint(buf, 1), order.Uint(want, size); got != w {
				t.Errorf("%v/%d: Uint = %#x, want %#x", order, size, got, w)
			}
			if got, w := c.Int(buf, 1), order.Int(want, size); got != w || got >= 0 {
				t.Errorf("%v/%d: Int = %#x, want %#x (negative)", order, size, got, w)
			}
			if c.Uint(buf, 0) != 0 {
				t.Errorf("%v/%d: the store reached element 0", order, size)
			}
			if got := c.Bytes(buf); len(got) != 2*size || &got[0] != &buf[3] {
				t.Errorf("%v/%d: Bytes covers %d bytes", order, size, len(got))
			}
		}
	}
	text := &Cursor{Off: 1, Size: 1, Count: 4}
	if got := text.CString([]byte("xab\x00dyz")); got != "ab" {
		t.Errorf("CString = %q, want the bytes before the first NUL", got)
	}
	if got := text.CString([]byte("xabcdyz")); got != "abcd" {
		t.Errorf("CString = %q, want the whole unterminated field", got)
	}
	var zero Cursor
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if zero.Uint(buf, 0) != 0 || zero.Int(buf, 0) != 0 || len(zero.Bytes(buf)) != 0 || zero.CString(buf) != "" || zero.InRange(0) {
		t.Error("the zero Cursor does not read as absent")
	}
	if zero.Uint(nil, 0) != 0 {
		t.Error("the zero Cursor does not load zero from an empty buffer")
	}
	odd := &Cursor{Size: 3, Count: 1}
	if odd.Uint(buf, 0) != 0 || odd.Int(buf, 0) != 0 {
		t.Error("an element width of 3 does not load as zero")
	}
}

// TestCursorFirstUseConcurrent races the lazy table build: eight
// goroutines make the first lookups on one shared *Format at once (run
// under -race in CI).  Whichever table is published, every lookup must
// agree with the linear scan.
func TestCursorFirstUseConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 20; round++ {
		f := MustLayout(RandomSchema(rng, "shared", 32, 1), &abi.SparcV9x64)
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := range f.Fields {
					fl := &f.Fields[(k+g)%len(f.Fields)]
					if c := f.Cursor(fl.Name); c == nil || c.Field != fl || c.Off != fl.Offset {
						errs <- fmt.Sprintf("goroutine %d: Cursor(%q) = %+v", g, fl.Name, c)
						return
					}
				}
				if f.Cursor("absent") != nil {
					errs <- fmt.Sprintf("goroutine %d: resolved an absent name", g)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

// TestCursorAllocs: the table is the only allocation, made once.
func TestCursorAllocs(t *testing.T) {
	f := MustLayout(testSchema(), &abi.SparcV8)
	last := f.Fields[len(f.Fields)-1].Name
	f.Cursor(last)
	if n := testing.AllocsPerRun(100, func() {
		if f.Cursor(last) == nil || f.Cursor("absent") != nil || f.FieldByName(last) == nil {
			t.Fatal("wrong answer")
		}
	}); n != 0 {
		t.Errorf("lookups on a built table allocate %v times per run", n)
	}
}

// TestCopiedFormatSharesTable: Format stays a copyable value; a copy
// made after first use answers from the same table, one made before
// builds its own, and both agree.
func TestCopiedFormatSharesTable(t *testing.T) {
	f := MustLayout(testSchema(), &abi.SparcV8)
	before := *f
	name := f.Fields[1].Name
	c := f.Cursor(name)
	after := *f
	if after.Cursor(name) != c {
		t.Error("a copy made after first use does not share the table")
	}
	if cb := before.Cursor(name); cb == nil || cb == c || *cb != *c {
		t.Errorf("a copy made before first use resolved %+v, want an equal cursor of its own", cb)
	}
}
