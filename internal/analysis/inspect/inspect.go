// Package inspect defines an Analyzer whose result is a shared,
// computed-once preorder traversal of the package's syntax trees —
// the stdlib-only analogue of golang.org/x/tools/go/ast/inspector
// behind golang.org/x/tools/go/analysis/passes/inspect.
//
// Analyzers that would each walk every file with ast.Inspect instead
// declare `Requires: []*analysis.Analyzer{inspect.Analyzer}` and filter
// the precomputed node list by type:
//
//	in := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
//	in.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) { ... })
//
// The tree is flattened exactly once per package unit no matter how many
// analyzers consume it.
package inspect

import (
	"go/ast"
	"reflect"

	"repro/internal/analysis"
)

// Analyzer provides the shared syntax inspector.  It reports nothing;
// its value is its result.
var Analyzer = &analysis.Analyzer{
	Name: "inspect",
	Doc: `build a shared preorder index of the package syntax trees

Framework pass: other analyzers require it and reuse its one traversal
instead of re-walking every file.`,
	IncludeTests: true,
	Run: func(pass *analysis.Pass) (any, error) {
		return New(pass.Files), nil
	},
}

// Inspector is the flattened preorder node list of a package's files.
type Inspector struct {
	nodes []ast.Node
}

// New flattens files into an Inspector.
func New(files []*ast.File) *Inspector {
	in := &Inspector{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				in.nodes = append(in.nodes, n)
			}
			return true
		})
	}
	return in
}

// Preorder calls f for every node whose dynamic type matches one of
// types, in depth-first source order.  An empty types slice matches
// every node.
func (in *Inspector) Preorder(types []ast.Node, f func(ast.Node)) {
	match := typeSet(types)
	for _, n := range in.nodes {
		if match == nil || match[reflect.TypeOf(n)] {
			f(n)
		}
	}
}

func typeSet(types []ast.Node) map[reflect.Type]bool {
	if len(types) == 0 {
		return nil
	}
	m := make(map[reflect.Type]bool, len(types))
	for _, t := range types {
		m[reflect.TypeOf(t)] = true
	}
	return m
}
