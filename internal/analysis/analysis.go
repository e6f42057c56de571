// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, sized for this repository's
// needs: a named Analyzer with a Run function over a type-checked package
// unit, reporting position-anchored Diagnostics.
//
// The repository cannot vendor x/tools, so the surrounding machinery —
// the `go vet -vettool=` unit-checker protocol (internal/analysis/
// unitchecker) and the golden-comment test harness (internal/analysis/
// analysistest) — is reimplemented on the standard library's go/ast,
// go/types and go/importer.  Analyzers written against this package look
// exactly like x/tools analyzers, including the two framework features
// the flow-aware checks need:
//
//   - dependencies: an Analyzer may Require other analyzers (typically
//     the shared inspect pass) and read their computed-once results from
//     Pass.ResultOf;
//   - facts: an Analyzer may attach serializable Facts to objects or
//     packages; facts flow across package boundaries through the
//     unitchecker's vetx files, so a pass analyzing package b can ask
//     "does this function imported from package a block?" (see Fact).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//pbiovet:allow <name>` suppression comments.
	Name string

	// Doc is the analyzer's documentation, shown by `pbiovet -help`.
	Doc string

	// IncludeTests selects whether the analyzer also inspects _test.go
	// files.  Checks whose findings are routinely intentional in test
	// fixtures (byte-order arithmetic probing a codec, for instance)
	// leave this false.
	IncludeTests bool

	// Requires lists analyzers that must run before this one on each
	// unit; their results are available through Pass.ResultOf.  The
	// graph must be acyclic.
	Requires []*Analyzer

	// FactTypes lists the concrete Fact types this analyzer exports and
	// imports.  Only analyzers that declare fact types participate in
	// cross-package fact flow (and only they are re-run over dependency
	// units by the unitchecker).  Each type must be a pointer to struct.
	FactTypes []Fact

	// Run applies the analyzer to one package unit.  The result value
	// (may be nil) is exposed to dependent analyzers via Pass.ResultOf.
	Run func(*Pass) (any, error)
}

// Pass carries one type-checked package unit through an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ResultOf holds the results of the analyzers named in
	// Analyzer.Requires, keyed by analyzer.
	ResultOf map[*Analyzer]any

	facts  *FactSet
	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ExportObjectFact attaches fact to obj, visible to later analysis of
// this package and — through the unitchecker's vetx serialization — to
// analysis of packages that import this one.  obj must belong to the
// package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies into fact (a pointer of a type listed in the
// analyzer's FactTypes) the fact previously attached to obj, reporting
// whether one existed.  obj may belong to this package or to any
// dependency whose facts were loaded.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(obj, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Analyzer, p.Pkg, fact)
}

// ImportPackageFact copies into fact the fact previously attached to
// pkg, reporting whether one existed.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.facts.importPackage(pkg, fact)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Unit is one type-checked package ready for analysis.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts carries fact state across the run: facts imported from
	// dependencies before Run, plus facts the analyzers export during
	// it.  Nil means an empty, run-local set.
	Facts *FactSet
}

// NewInfo returns a types.Info with every map analyzers consult allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Run applies the analyzers (and, first, their transitive Requires) to
// the unit and returns the surviving diagnostics, ordered by position.
// Each analyzer runs at most once per unit; results flow to dependents
// through Pass.ResultOf, facts through u.Facts.  Findings silenced by a
// `//pbiovet:allow` comment (see allowedAt) are dropped, and analyzers
// with IncludeTests unset never see diagnostics positioned in _test.go
// files.  registry is every analyzer a suppression may name — analyzers
// is all of it or a `-run` selection from it — and an allow comment
// naming anything else is itself a diagnostic: a suppression that can
// no longer suppress anything must not outlive its analyzer.
func Run(u *Unit, analyzers, registry []*Analyzer) ([]Diagnostic, error) {
	if u.Facts == nil {
		u.Facts = NewFactSet()
	}
	var out []Diagnostic
	allow := collectAllows(u.Fset, u.Files, registry, func(d Diagnostic) { out = append(out, d) })

	results := make(map[*Analyzer]any)
	visiting := make(map[*Analyzer]bool)
	var exec func(a *Analyzer) error
	exec = func(a *Analyzer) error {
		if _, done := results[a]; done {
			return nil
		}
		if visiting[a] {
			return fmt.Errorf("analyzer dependency cycle through %s", a.Name)
		}
		visiting[a] = true
		defer delete(visiting, a)
		for _, dep := range a.Requires {
			if err := exec(dep); err != nil {
				return err
			}
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.TypesInfo,
			ResultOf:  make(map[*Analyzer]any, len(a.Requires)),
			facts:     u.Facts,
		}
		for _, dep := range a.Requires {
			pass.ResultOf[dep] = results[dep]
		}
		pass.report = func(d Diagnostic) {
			pos := u.Fset.Position(d.Pos)
			if !a.IncludeTests && strings.HasSuffix(pos.Filename, "_test.go") {
				return
			}
			if allow.allowedAt(pos, a.Name) {
				return
			}
			out = append(out, d)
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := exec(a); err != nil {
			return nil, err
		}
	}
	sortDiagnostics(u.Fset, out)
	return out, nil
}

// sortDiagnostics orders diagnostics by file name, line, column, then
// analyzer and message — a total order stable across runs, so vet output
// diffs cleanly (see `make vet-report`).
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if ds[i].Analyzer != ds[j].Analyzer {
			return ds[i].Analyzer < ds[j].Analyzer
		}
		return ds[i].Message < ds[j].Message
	})
}

// allowSet records `//pbiovet:allow name[,name...] [— reason]` comments.
// A comment suppresses matching diagnostics reported on its own line and,
// when it stands alone on its line, on the following line.  Each name must
// be an analyzer of the registry (or "all"); collectAllows reports any
// other.
type allowSet map[string]map[int][]string

func collectAllows(fset *token.FileSet, files []*ast.File, registry []*Analyzer, report func(Diagnostic)) allowSet {
	known := map[string]bool{"all": true}
	for _, a := range registry {
		known[a.Name] = true
	}
	set := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//pbiovet:allow")
				if !ok {
					continue
				}
				// Everything after the analyzer list is free-form rationale.
				names := strings.Fields(text)
				var list []string
				if len(names) > 0 {
					list = strings.Split(names[0], ",")
				}
				for _, name := range list {
					if !known[name] {
						report(Diagnostic{Pos: c.Pos(), Analyzer: "pbiovet", Message: fmt.Sprintf(
							"//pbiovet:allow names %q, which is not a pbiovet analyzer: the suppression is stale, delete it", name)})
					}
				}
				pos := fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], list...)
				if pos.Column == 1 || onlyCommentOnLine(fset, f, c) {
					byLine[pos.Line+1] = append(byLine[pos.Line+1], list...)
				}
			}
		}
	}
	return set
}

// onlyCommentOnLine reports whether c begins its source line (ignoring
// whitespace), i.e. the comment is not trailing a statement.
func onlyCommentOnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	// Find whether any non-comment node of the file starts earlier on the
	// same line.  A linear scan is fine: allow comments are rare.
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Filename == pos.Filename && p.Line == pos.Line && p.Column < pos.Column {
			switch n.(type) {
			case *ast.File, *ast.Comment, *ast.CommentGroup:
			default:
				found = true
			}
		}
		return !found
	})
	return !found
}

func (s allowSet) allowedAt(pos token.Position, analyzer string) bool {
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, name := range byLine[pos.Line] {
		if name == analyzer || name == "all" {
			return true
		}
	}
	return false
}
