package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is one seeded bug: in file (module-relative) the snippet old,
// which must occur exactly once, becomes new, and vetting the file's
// package with the one analyzer must then report a diagnostic containing
// want against the mutated file.
type mutation struct {
	name     string
	analyzer string // "" runs the whole suite (the stale-suppression row)
	file     string
	old, new string
	want     string
}

// unsuppress builds the row for a `//pbiovet:allow` comment: with the
// comment turned into a plain one, the finding it silenced must come
// back.  rest is enough of the comment's rationale to be unique.
func unsuppress(name, analyzer, file, rest, want string) mutation {
	return mutation{name, analyzer, file,
		"//pbiovet:allow " + analyzer + " — " + rest, "// " + rest, want}
}

// mutations is the admission test of the suite (DESIGN §13): every
// analyzer in passes.All is here with the bug classes it claims, seeded
// into the code it guards, and every suppression comment in the tree is
// here with the finding it suppresses.  A refactor that moves a snippet
// carries its row along; an analyzer with no row does not belong in
// passes.All.
var mutations = []mutation{
	// lockcheck: blocking work under relay.Server.mu.
	{"lock/push-in-broadcast", "lockcheck", "internal/relay/fanout.go",
		"if c.q.pushNoWait(of) == pushOverflow {",
		"if c.q.push(of) == pushOverflow {",
		"call to push (may block) while holding s.mu"},
	{"lock/write-in-Close", "lockcheck", "internal/relay/relay.go",
		"\tfor u := range s.uplinks {\n\t\tu.conn.Close()\n",
		"\tfor u := range s.uplinks {\n\t\tu.conn.Write(nil)\n\t\tu.conn.Close()\n",
		"call to Write (interface I/O method) while holding s.mu"},
	{"lock/bare-send-in-notifyUplinks", "lockcheck", "internal/relay/uplink.go",
		"\t\t\tselect {\n\t\t\tcase u.kick <- struct{}{}:\n\t\t\tdefault:\n\t\t\t}\n",
		"\t\t\tu.kick <- struct{}{}\n",
		"channel send while holding s.mu"},
	unsuppress("lock/allow-fmtserver-backoff", "lockcheck", "internal/fmtserver/fmtserver.go",
		"c.mu serializes the one-request-at-a-time protocol", "call to Sleep (sleeps) while holding c.mu"),
	unsuppress("lock/allow-fmtserver-exchange", "lockcheck", "internal/fmtserver/fmtserver.go",
		"the request/response exchange is what c.mu serializes", "call to do (may block) while holding c.mu"),
	unsuppress("lock/allow-uplink-write", "lockcheck", "internal/relay/uplink.go",
		"u.mu exists to serialize frame bytes", "call to Write (may block) while holding u.mu"),

	// alloccheck: allocations in //pbio:hotpath noalloc=0 functions.
	{"alloc/append-in-WriteRecord", "alloccheck", "internal/transport/transport.go",
		"\treturn t.emit(FrameData, id, \"data\", data)\n",
		"\tvar cp []byte\n\tcp = append(cp, data...)\n\treturn t.emit(FrameData, id, \"data\", cp)\n",
		"append to a slice declared without capacity (grows and allocates) in //pbio:hotpath noalloc=0 function WriteRecord"},
	{"alloc/make-in-broadcast", "alloccheck", "internal/relay/fanout.go",
		"\tsent := 0\n\tvar drop []*consumer\n",
		"\tsent := 0\n\tdrop := make([]*consumer, 0, len(s.consumers))\n",
		"make (allocates) in //pbio:hotpath noalloc=0 function broadcast"},
	{"alloc/make-in-FormatTable.Lookup", "alloccheck", "internal/transport/formattable.go",
		"\treturn t.spill[id]\n",
		"\tif t.spill == nil {\n\t\tt.spill = make(map[uint32]*T)\n\t}\n\treturn t.spill[id]\n",
		"make (allocates) in //pbio:hotpath noalloc=0 function Lookup"},
	// The two allocations per frame the one frame codec deleted (ROADMAP
	// 4): a header on the reader's stack, an iovec built per write.
	{"alloc/stack-header-in-FrameReader.Next", "alloccheck", "internal/transport/frame.go",
		"\tif _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {\n",
		"\tvar hdr [frameHeaderSize]byte\n\tif _, err := io.ReadFull(fr.r, hdr[:]); err != nil {\n",
		"local array sliced into a call with an interface argument (escapes to the heap) in //pbio:hotpath noalloc=0 function Next"},
	{"alloc/literal-Buffers-in-FrameWriter.Write", "alloccheck", "internal/transport/frame.go",
		"\tfw.nb = net.Buffers(fw.vec)\n\twritten, err := fw.nb.WriteTo(fw.w)\n",
		"\tbufs := net.Buffers{fw.hdr[:], parts[0]}\n\twritten, err := bufs.WriteTo(fw.w)\n",
		"slice literal (allocates its backing array when it escapes) in //pbio:hotpath noalloc=0 function Write"},
	{"alloc/closure-in-Message.state", "alloccheck", "pbio/stream.go",
		"\treturn &r.state[m.msg.Ord]\n",
		"\tat := func() *formatState { return &r.state[m.msg.Ord] }\n\treturn at()\n",
		"closure capturing variables (allocates per call) in //pbio:hotpath noalloc=0 function state"},
	{"alloc/closure-in-Message.convert", "alloccheck", "pbio/stream.go",
		"\tcase n == 1:\n\t\terr = prog.Convert(dst, src)\n",
		"\tcase n == 1:\n\t\tfunc() {\n\t\t\tstart := time.Now()\n\t\t\terr = prog.Convert(dst, src)\n\t\t\tt1 = start\n\t\t}()\n",
		"closure capturing variables (allocates per call) in //pbio:hotpath noalloc=0 function convert"},

	// atomiccheck: a plain read of a field published with sync/atomic.
	{"atomic/plain-read-of-Format.fp", "atomiccheck", "internal/wire/format.go",
		"if p := (*string)(atomic.LoadPointer(&f.fp)); p != nil {",
		"if p := (*string)(f.fp); p != nil {",
		"plain access to field Format.fp, which is accessed with sync/atomic elsewhere"},

	// endiancheck: byte-order arithmetic outside the layout layers.
	{"endian/shift-in-ReadFrame", "endiancheck", "internal/transport/frame.go",
		"n := int(wire.BeUint32(fr.hdr[7:]))",
		"n := int(uint32(fr.hdr[7])<<24 | uint32(fr.hdr[8])<<16 | uint32(fr.hdr[9])<<8 | uint32(fr.hdr[10]))",
		"manual shift-and-mask byte decoding outside the layout layer"},

	// senterr: a wrapped sentinel compared with == (an identity "fast
	// path" in front of the errors.Is, which also keeps the file's only
	// use of the errors import).
	{"senterr/eq-ErrCorruptFrame", "senterr", "internal/relay/ingest.go",
		"case errors.Is(err, transport.ErrCorruptFrame):",
		"case err == transport.ErrCorruptFrame || errors.Is(err, transport.ErrCorruptFrame):",
		"comparing against sentinel transport.ErrCorruptFrame with =="},

	// tracecheck: label values built at the call site.
	{"trace/concat-in-bindFormatMetrics", "tracecheck", "pbio/telemetry.go",
		"c.met.recordsSent.With(name)", `c.met.recordsSent.With("fmt-" + name)`,
		"metric label value built with string concatenation"},
	{"trace/concat-on-CounterFuncVec", "tracecheck", "internal/relay/mesh.go",
		"s.fvecs.frames.With(fs.frames.Load, name)", `s.fvecs.frames.With(fs.frames.Load, "fmt-"+name)`,
		"metric label value built with string concatenation"},
	unsuppress("trace/allow-telemetry-build", "tracecheck", "internal/telemetry/telemetry_test.go",
		"bounded to 4 values", "metric label value built with fmt.Sprint"),
	unsuppress("trace/allow-telemetry-readback", "tracecheck", "internal/telemetry/telemetry_test.go",
		"reading back the 4 bounded test series", "metric label value built with fmt.Sprint"),

	// The framework itself: a suppression naming a deleted analyzer.
	{"allow/stale-name", "", "pbio/reflect_test.go",
		"S string `pbio:\"s,size=zero\"`\n",
		"S string `pbio:\"s,size=zero\"` //pbiovet:allow tagcheck — intentionally malformed fixture\n",
		`//pbiovet:allow names "tagcheck", which is not a pbiovet analyzer`},
}

// TestMutations applies each row through `go vet -overlay`, so the
// working tree is never written, and requires its diagnostic.
func TestMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets one package per row")
	}
	tool := buildTool(t)
	root := moduleRoot(t)
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s: the snippet this row mutates occurs %d times, want 1 — the code moved; move the row with it:\n%s", m.file, n, m.old)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o666); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o666); err != nil {
				t.Fatal(err)
			}
			args := []string{"vet", "-overlay", overlayFile, "-vettool=" + tool}
			if m.analyzer != "" {
				args = append(args, "-run="+m.analyzer)
			}
			vet := exec.Command("go", append(args, "./"+filepath.Dir(m.file))...)
			vet.Dir = root
			out, err := vet.CombinedOutput()
			if err == nil {
				t.Fatalf("the seeded bug went unreported:\n- %s\n+ %s", m.old, m.new)
			}
			// Diagnostics name the overlay's replacement file, by whichever
			// of its absolute and relative paths is shorter; the log is CI's
			// mutation report.
			found := false
			reported := filepath.Join(filepath.Base(dir), filepath.Base(m.file)) + ":"
			for _, line := range strings.Split(string(out), "\n") {
				if _, msg, ok := strings.Cut(line, reported); ok && strings.Contains(msg, m.want) {
					t.Logf("%s:%s", m.file, msg)
					found = true
				}
			}
			if !found {
				t.Fatalf("no diagnostic containing %q against %s:\n%s", m.want, m.file, out)
			}
		})
	}
}
