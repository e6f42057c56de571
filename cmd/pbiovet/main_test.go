package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles pbiovet into a temp dir and returns the binary
// path.
func buildTool(t *testing.T) string {
	t.Helper()
	tool := filepath.Join(t.TempDir(), "pbiovet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/pbiovet")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pbiovet: %v\n%s", err, out)
	}
	return tool
}

// TestSelfRunClean builds pbiovet and runs it as a vet tool over the
// whole module: the tree must stay free of pbiovet diagnostics.  This is
// the acceptance gate for the analyzer suite — a regression either in an
// analyzer (false positive) or in the tree (real finding) fails here.
func TestSelfRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole module")
	}
	tool := buildTool(t)
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = moduleRoot(t)
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("pbiovet reported diagnostics over the module:\n%s", out)
	}
}

// TestDataPathImportsNoObservability pins the layering DESIGN §15
// describes: the packages that lay out, plan and convert records are
// observed from above (pbio listens on dcg.Cache.OnBuild and times its
// own calls) and import neither the metric registry nor the flight
// recorder, so a sink cannot grow back inside them.
func TestDataPathImportsNoObservability(t *testing.T) {
	list := exec.Command("go", "list", "-deps",
		"./internal/abi", "./internal/wire", "./internal/native", "./internal/convert", "./internal/dcg")
	list.Dir = moduleRoot(t)
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "repro/internal/telemetry") || dep == "repro/internal/flightrec" {
			t.Errorf("the data path depends on %s", dep)
		}
	}
}

// TestCrossPackageFactFlow proves facts survive the unitchecker
// protocol: package a's Wait earns a Blocks fact when a is analyzed, the
// fact is serialized into a's vetx file, and analyzing package b — which
// calls a.Wait under a mutex — must read the fact back from the vetx and
// report the convoy.
func TestCrossPackageFactFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and vets a scratch module")
	}
	tool := buildTool(t)
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module facttest\n\ngo 1.21\n")
	write("a/a.go", `package a

// Wait blocks on the channel: lockcheck must export a Blocks fact.
func Wait(ch chan int) int {
	return <-ch
}
`)
	write("b/b.go", `package b

import (
	"sync"

	"facttest/a"
)

type T struct {
	mu sync.Mutex
	ch chan int
}

func (t *T) Bad() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return a.Wait(t.ch)
}
`)
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = dir
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("expected a lockcheck diagnostic in package b, got none:\n%s", out)
	}
	want := "call to Wait (may block) while holding t.mu"
	if !strings.Contains(string(out), want) {
		t.Fatalf("diagnostic missing %q — the Blocks fact did not flow from a to b:\n%s", want, out)
	}
}

// TestListAndUnknownAnalyzer checks the human-facing CLI: -list prints
// every analyzer with its one-line doc, and a typo in -run fails with
// the valid names rather than silently checking nothing.
func TestListAndUnknownAnalyzer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	tool := buildTool(t)

	out, err := exec.Command(tool, "-list").Output()
	if err != nil {
		t.Fatalf("pbiovet -list: %v", err)
	}
	for _, name := range []string{"endiancheck", "senterr", "tracecheck",
		"lockcheck", "atomiccheck", "alloccheck"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("pbiovet -list does not mention %s:\n%s", name, out)
		}
	}

	// A retired analyzer's name must fail like a typo, not check nothing.
	for _, name := range []string{"nosuch", "poolcheck"} {
		bad := exec.Command(tool, "-run="+name, "./cmd/pbiovet")
		bad.Dir = moduleRoot(t)
		msg, err := bad.CombinedOutput()
		if err == nil {
			t.Fatalf("pbiovet -run=%s succeeded; want a loud failure:\n%s", name, msg)
		}
		if !strings.Contains(string(msg), `unknown analyzer "`+name+`"`) ||
			!strings.Contains(string(msg), "valid analyzers:") {
			t.Errorf("unknown-analyzer error does not name the problem or the valid set:\n%s", msg)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root not found")
		}
		dir = parent
	}
}

// TestVetProtocolProbe checks the version handshake the go command uses
// to accept a vet tool: `pbiovet -V=full` must print a single line in
// the `name version ... buildID=...` shape.
func TestVetProtocolProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool")
	}
	root := moduleRoot(t)
	tool := filepath.Join(t.TempDir(), "pbiovet")
	build := exec.Command("go", "build", "-o", tool, "./cmd/pbiovet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pbiovet: %v\n%s", err, out)
	}
	out, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("pbiovet -V=full: %v", err)
	}
	s := strings.TrimSpace(string(out))
	if !strings.Contains(s, "pbiovet version ") || !strings.Contains(s, "buildID=") {
		t.Errorf("unexpected -V=full output: %q", s)
	}
}
