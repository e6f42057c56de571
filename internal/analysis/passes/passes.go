// Package passes enumerates the pbiovet analyzer suite, so the vet tool
// and the self-run test agree on exactly which invariants are enforced.
package passes

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/alloccheck"
	"repro/internal/analysis/passes/atomiccheck"
	"repro/internal/analysis/passes/endiancheck"
	"repro/internal/analysis/passes/lockcheck"
	"repro/internal/analysis/passes/senterr"
	"repro/internal/analysis/passes/tracecheck"
)

// All is the pbiovet suite, in reporting order: the shape checks, then
// the flow-aware locking, atomicity and allocation checks.  Admission is
// by mutation: every analyzer here has rows in cmd/pbiovet's
// TestMutations, each a bug seeded into the real tree that must produce
// its diagnostic.
var All = []*analysis.Analyzer{
	endiancheck.Analyzer,
	senterr.Analyzer,
	tracecheck.Analyzer,
	lockcheck.Analyzer,
	atomiccheck.Analyzer,
	alloccheck.Analyzer,
}
