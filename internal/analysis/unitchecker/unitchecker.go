// Package unitchecker implements the `go vet -vettool=` driver protocol
// on the standard library alone, mirroring (a subset of)
// golang.org/x/tools/go/analysis/unitchecker.
//
// The go command invokes a vet tool once per package unit:
//
//	vettool -V=full                 # print a tool ID for the build cache
//	vettool -flags                  # describe supported flags as JSON
//	vettool [flags] $WORK/vet.cfg   # analyze one unit
//
// vet.cfg is a JSON description of the unit: its source files, the import
// map, and the compiled export data of every dependency.  The unit is
// type-checked with go/importer reading that export data, the analyzers
// run over it, and diagnostics are printed to stderr in the standard
// file:line:col form (exit status 2 when there are findings, which is how
// the go command recognizes a failed vet).
package unitchecker

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Config is the JSON structure of the go command's vet.cfg, trimmed to
// the fields this driver consumes.  Unknown fields are ignored.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoreFiles               []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main runs the vet-tool protocol and does not return.  It is the entire
// main function of a vet tool built on this package.
func Main(analyzers ...*analysis.Analyzer) {
	// The -V flag must be handled before normal flag parsing: the go
	// command probes `vettool -V=full` to compute a cache key.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			printVersion()
			os.Exit(0)
		}
	}
	printFlags := flag.Bool("flags", false, "print flags as JSON and exit (go vet protocol)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON instead of text")
	runOnly := flag.String("run", "", "comma-separated list of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: %s [flags] vet.cfg\n\nAnalyzers:\n", filepath.Base(os.Args[0]))
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *printFlags {
		// Describe our flags so `go vet` can validate its command line.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		descr := []jsonFlag{
			{Name: "json", Bool: true, Usage: "emit JSON output"},
			{Name: "run", Bool: false, Usage: "comma-separated list of analyzers to run"},
		}
		data, err := json.Marshal(descr)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		os.Exit(0)
	}
	selected := analyzers
	if *runOnly != "" {
		var err error
		if selected, err = Select(analyzers, *runOnly); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		flag.Usage()
		os.Exit(1)
	}
	diags, err := run(args[0], selected, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	os.Exit(report(os.Stderr, diags, *jsonOut))
}

// Select resolves a comma-separated list of analyzer names against the
// registry, preserving registry order.  An unknown name is an error
// whose message lists the valid names, so a typo in `pbiovet -run=...`
// fails loudly instead of silently checking nothing.
func Select(analyzers []*analysis.Analyzer, names string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	known := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("pbiovet: unknown analyzer %q (valid analyzers: %s)",
				name, strings.Join(known, ", "))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("pbiovet: -run selected no analyzers (valid analyzers: %s)",
			strings.Join(known, ", "))
	}
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// printVersion replicates the output format the go command's tool-ID
// computation expects from `tool -V=full`: the program name, a version,
// and a content hash of the executable as the build ID.
func printVersion() {
	progname := os.Args[0]
	f, err := os.Open(progname)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		progname, string(h.Sum(nil)[:12]))
}

type diagnostic struct {
	analysis.Diagnostic
	position token.Position
}

// run analyzes the unit described by cfgFile with analyzers, a selection
// from registry, and returns its diagnostics.
func run(cfgFile string, analyzers, registry []*analysis.Analyzer) ([]diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}

	// Decide whether this unit participates in fact flow.  Facts are
	// only computed for this module's own packages: analyzing the whole
	// transitive dependency graph (all of std) would be slow and buys
	// nothing — the blocking behavior of standard-library functions is
	// seeded by name in the analyzers instead.  Dependency units outside
	// the module get an empty vetx file, which the go command requires
	// to exist either way.
	factful := factBearing(analyzers)
	if cfg.VetxOnly && (len(factful) == 0 || !inMainModule(&cfg)) {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	// Load the facts dependencies exported through their vetx files.
	analysis.RegisterFactTypes(analyzers)
	facts := analysis.NewFactSet()
	for _, vetx := range sortedValues(cfg.PackageVetx) {
		data, err := os.ReadFile(vetx)
		if err != nil || len(data) == 0 {
			continue // no facts recorded for this dependency
		}
		if err := facts.Decode(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("reading facts from %s: %w", vetx, err)
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0)
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	tc := &types.Config{
		Importer: &cfgImporter{
			cfg: &cfg,
			gc:  importer.ForCompiler(fset, compiler, (&exportLookup{cfg: &cfg}).lookup),
		},
		Sizes:     types.SizesFor(compiler, envOr("GOARCH", runtime.GOARCH)),
		GoVersion: cfg.GoVersion,
	}
	info := analysis.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	unit := &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, Facts: facts}
	toRun := analyzers
	if cfg.VetxOnly {
		// A dependency unit: run only the fact-bearing analyzers, for
		// their fact exports; their diagnostics are reported when the
		// package itself is vetted.
		toRun = factful
	}
	raw, err := analysis.Run(unit, toRun, registry)
	if err != nil {
		return nil, err
	}

	// Publish this unit's accumulated facts (its own exports plus its
	// dependencies', so they flow transitively) for importing packages.
	if cfg.VetxOutput != "" {
		var buf bytes.Buffer
		if err := facts.Encode(&buf); err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.VetxOutput, buf.Bytes(), 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	out := make([]diagnostic, len(raw))
	for i, d := range raw {
		out[i] = diagnostic{Diagnostic: d, position: fset.Position(d.Pos)}
	}
	return out, nil
}

// inMainModule reports whether the unit belongs to the module being
// vetted, as opposed to the standard library (whose GOROOT/src tree
// declares module "std"): the unit's import path must live under the
// module path declared by the nearest go.mod above its source
// directory.  Test-variant paths ("p [p.test]") count as their base
// package.
func inMainModule(cfg *Config) bool {
	path, _, _ := strings.Cut(cfg.ImportPath, " [")
	dir := cfg.Dir
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					mod = strings.Trim(strings.TrimSpace(mod), `"`)
					return path == mod || strings.HasPrefix(path, mod+"/")
				}
			}
			return false
		}
		parent := filepath.Dir(dir)
		if parent == dir || dir == "" {
			return false
		}
		dir = parent
	}
}

// factBearing returns the analyzers that declare fact types — the ones
// worth running over dependency (VetxOnly) units.
func factBearing(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// sortedValues returns m's values ordered by key, for deterministic
// fact-loading order.
func sortedValues(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// report prints diagnostics and returns the process exit code.
func report(w io.Writer, diags []diagnostic, asJSON bool) int {
	if asJSON {
		type jsonDiag struct {
			Posn     string `json:"posn"`
			Message  string `json:"message"`
			Category string `json:"category"`
		}
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{Posn: d.position.String(), Message: d.Message, Category: d.Analyzer}
		}
		data, _ := json.MarshalIndent(out, "", "\t")
		os.Stdout.Write(append(data, '\n'))
	} else {
		for _, d := range diags {
			fmt.Fprintf(w, "%s: %s\n", d.position, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// cfgImporter resolves imports through the vet config's ImportMap before
// delegating to the export-data importer.
type cfgImporter struct {
	cfg *Config
	gc  types.Importer
}

func (im *cfgImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.cfg.ImportMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return im.gc.Import(path)
}

// exportLookup opens the compiled export data the go command recorded for
// each dependency.
type exportLookup struct {
	cfg *Config
}

func (l *exportLookup) lookup(path string) (io.ReadCloser, error) {
	if mapped, ok := l.cfg.ImportMap[path]; ok {
		path = mapped
	}
	file, ok := l.cfg.PackageFile[path]
	if !ok {
		return nil, fmt.Errorf("no export data recorded for %q", path)
	}
	return os.Open(file)
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}
