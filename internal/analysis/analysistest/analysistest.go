// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want "regexp"` comments, mirroring the
// golden-test convention of golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<pkg>/*.go.  Every line that should
// trigger diagnostics carries a trailing comment of the form
//
//	x := f() // want `regexp` `another regexp`
//
// with one Go string literal (raw or interpreted) per expected
// diagnostic; each must match a diagnostic reported on that line, and
// every diagnostic must be matched by one expectation.
//
// Facts are golden-checked too.  An item of the form name:"regexp"
// asserts that the analyzer exported a fact on the named object declared
// at that line, with the fact's String() matching the pattern:
//
//	func F(b []byte) { pool.Put(b) } // want F:`putsArg\(0\)`
//
// The special name "package" asserts a package-level fact and may appear
// on any line (package facts have no position).  Like diagnostics, every
// exported fact must be matched by an assertion and vice versa.
//
// Fixture files are type-checked for real: imports — both standard
// library and this module's packages — resolve through `go list -export`
// run at the module root, so fixtures can exercise pbio.RegisterStruct or
// transport sentinels with full type information.
package analysistest

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each fixture package from dir/src/<pkg>, applies the
// analyzer, and compares diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			t.Helper()
			runOne(t, filepath.Join(dir, "src", pkg), pkg, a)
		})
	}
}

func runOne(t *testing.T, dir, pkgpath string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		names = append(names, name)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	tc := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", moduleResolver(t).lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", pkgpath, err)
	}

	facts := analysis.NewFactSet()
	only := []*analysis.Analyzer{a}
	diags, err := analysis.Run(&analysis.Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Facts: facts}, only, only)
	if err != nil {
		t.Fatal(err)
	}
	check(t, fset, names, diags, facts.All())
}

// expectation is one want pattern, keyed to a file line.  name is empty
// for a diagnostic expectation; otherwise the expectation matches a fact
// exported on the object of that name ("package" for a package fact).
type expectation struct {
	name string
	rx   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`(?m)^\s*want (.*)$`)

// check compares diagnostics and exported facts to the want comments of
// the fixture files.
func check(t *testing.T, fset *token.FileSet, files []string, diags []analysis.Diagnostic, facts []analysis.FactEntry) {
	t.Helper()
	wants := make(map[string]map[int][]*expectation)
	for _, name := range files {
		byLine, err := parseWants(name)
		if err != nil {
			t.Fatal(err)
		}
		wants[name] = byLine
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, exp := range wants[pos.Filename][pos.Line] {
			if exp.name == "" && !exp.used && exp.rx.MatchString(d.Message) {
				exp.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}

	for _, f := range facts {
		text := fmt.Sprint(f.Fact)
		if f.Object == "" {
			// Package facts carry no position: any unused package
			// assertion in any fixture file may claim them.
			if !claimPackageFact(wants, text) {
				t.Errorf("unexpected package fact on %s: %s", f.Pkg, text)
			}
			continue
		}
		pos := fset.Position(f.Pos)
		matched := false
		for _, exp := range wants[pos.Filename][pos.Line] {
			if exp.name != "" && !exp.used && keyNames(f.Object, exp.name) && exp.rx.MatchString(text) {
				exp.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected fact on %s: %s", pos, f.Object, text)
		}
	}

	for name, byLine := range wants {
		lines := make([]int, 0, len(byLine))
		for line := range byLine {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, exp := range byLine[line] {
				if exp.used {
					continue
				}
				if exp.name == "" {
					t.Errorf("%s:%d: expected diagnostic matching %q was not reported", name, line, exp.rx)
				} else {
					t.Errorf("%s:%d: expected fact on %s matching %q was not exported", name, line, exp.name, exp.rx)
				}
			}
		}
	}
}

// claimPackageFact marks the first unused package-fact expectation whose
// pattern matches text, reporting whether one was found.
func claimPackageFact(wants map[string]map[int][]*expectation, text string) bool {
	for _, byLine := range wants {
		for _, exps := range byLine {
			for _, exp := range exps {
				if exp.name == "package" && !exp.used && exp.rx.MatchString(text) {
					exp.used = true
					return true
				}
			}
		}
	}
	return false
}

// keyNames reports whether an object-fact key refers to the declared
// name: keys are "Name" for package-scope vars, "pkg.F" for functions,
// and "(pkg.T).M" or "(*pkg.T).M" for methods.
func keyNames(key, name string) bool {
	return key == name || strings.HasSuffix(key, "."+name)
}

// parseWants extracts want expectations from the comments of one file.
func parseWants(name string) (map[int][]*expectation, error) {
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	file := fset.AddFile(name, -1, len(src))
	var sc scanner.Scanner
	sc.Init(file, src, nil, scanner.ScanComments)
	out := make(map[int][]*expectation)
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			break
		}
		if tok != token.COMMENT {
			continue
		}
		text := strings.TrimPrefix(lit, "//")
		m := wantRe.FindStringSubmatch(strings.TrimSpace(text))
		if m == nil {
			continue
		}
		line := fset.Position(pos).Line
		items, err := scanItems(m[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad want comment: %w", name, line, err)
		}
		for _, it := range items {
			rx, err := regexp.Compile(it.pattern)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern: %w", name, line, err)
			}
			out[line] = append(out[line], &expectation{name: it.name, rx: rx})
		}
	}
	return out, nil
}

// wantItem is one parsed want element: a bare string literal (diagnostic
// expectation) or name:"literal" (fact expectation).
type wantItem struct {
	name    string
	pattern string
}

var factNameRe = regexp.MustCompile("^[A-Za-z_][A-Za-z0-9_]*:")

// scanItems parses a whitespace-separated sequence of Go string literals
// (raw or interpreted), each optionally prefixed by an identifier and a
// colon to assert a fact instead of a diagnostic.
func scanItems(s string) ([]wantItem, error) {
	var out []wantItem
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		var name string
		if m := factNameRe.FindString(s); m != "" {
			name = strings.TrimSuffix(m, ":")
			s = s[len(m):]
		}
		if s == "" {
			return nil, fmt.Errorf("fact assertion %q has no pattern", name)
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("expected string literal, found %q", s)
		}
		end := strings.IndexByte(s[1:], quote)
		for quote == '"' && end >= 0 && s[end] == '\\' { // skip escaped quotes
			next := strings.IndexByte(s[end+2:], quote)
			if next < 0 {
				end = -1
				break
			}
			end += next + 1
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated string literal in %q", s)
		}
		out = append(out, wantItem{name: name, pattern: s[1 : end+1]})
		s = s[end+2:]
	}
}

// resolver resolves import paths to compiled export data by shelling out
// to `go list -export` at the module root.  Results are cached for the
// whole test process.
type resolver struct {
	root string
	mu   sync.Mutex
	file map[string]string
}

var (
	sharedResolver *resolver
	resolverOnce   sync.Once
)

func moduleResolver(t *testing.T) *resolver {
	t.Helper()
	resolverOnce.Do(func() {
		dir, err := os.Getwd()
		if err != nil {
			return
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				sharedResolver = &resolver{root: dir, file: make(map[string]string)}
				return
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return
			}
			dir = parent
		}
	})
	if sharedResolver == nil {
		t.Fatal("analysistest: module root not found")
	}
	return sharedResolver
}

func (r *resolver) lookup(path string) (io.ReadCloser, error) {
	r.mu.Lock()
	file, ok := r.file[path]
	r.mu.Unlock()
	if !ok {
		cmd := exec.Command("go", "list", "-export", "-json=Export", "--", path)
		cmd.Dir = r.root
		out, err := cmd.Output()
		if err != nil {
			msg := ""
			if ee, ok := err.(*exec.ExitError); ok {
				msg = ": " + strings.TrimSpace(string(ee.Stderr))
			}
			return nil, fmt.Errorf("resolving import %q%s", path, msg)
		}
		var listed struct{ Export string }
		if err := json.Unmarshal(out, &listed); err != nil {
			return nil, err
		}
		if listed.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		file = listed.Export
		r.mu.Lock()
		r.file[path] = file
		r.mu.Unlock()
	}
	return os.Open(file)
}
