// Command pbiovet is the repository's static-analysis suite: a vet tool
// proving PBIO's wire invariants at compile time.
//
// It runs in two modes:
//
//	go vet -vettool=$(which pbiovet) ./...   # as a vet tool
//	pbiovet [flags] [packages]               # standalone (defaults to ./...)
//
// Standalone mode simply re-execs the go command with itself as the vet
// tool, so both modes share one code path — the unit-checker protocol —
// and agree exactly on build tags, test variants and import resolution.
// `pbiovet -run=name,...` restricts the run to the named analyzers;
// `pbiovet -list` (or -help) prints the analyzer registry.
//
// Analyzers (suppress a deliberate finding with a
// `//pbiovet:allow <name> — reason` comment on or above the line; a
// comment naming anything but these six is itself a diagnostic):
//
//	endiancheck byte-order arithmetic stays inside the layout layers
//	senterr     sentinel errors are classified with errors.Is, not ==
//	tracecheck  telemetry label values come from bounded sets
//	lockcheck   no potentially-blocking call runs while a sync.Mutex is held
//	atomiccheck fields accessed with sync/atomic are never accessed plainly
//	alloccheck  //pbio:hotpath functions stay within their declared alloc budget
//
// An analyzer is admitted by mutation, not by fixture: TestMutations
// (mutation_test.go) seeds each bug class into the real tree through a
// `go vet -overlay` and requires the diagnostic.  What a format's own
// validation already rejects at registration (struct tags, literal
// specs) and what `go test -race` already traps (pooled-buffer
// ownership, internal/bufpool's tracker) has no analyzer here.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis/passes"
	"repro/internal/analysis/unitchecker"
)

func main() {
	// The go command drives the vet protocol with -V=full, -flags, or a
	// vet.cfg argument; anything else is a human asking for a standalone
	// run over package patterns.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" || arg == "-flags" ||
			strings.HasSuffix(arg, ".cfg") {
			unitchecker.Main(passes.All...)
		}
	}
	os.Exit(standalone(os.Args[1:]))
}

// listAnalyzers prints the registry: every analyzer's name and the first
// line of its documentation.
func listAnalyzers(w *os.File) {
	fmt.Fprintf(w, "pbiovet checks PBIO's wire, ownership, locking and allocation invariants.\n\n")
	fmt.Fprintf(w, "usage: pbiovet [-run=name,...] [packages]\n\nAnalyzers:\n")
	for _, a := range passes.All {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, doc)
	}
	fmt.Fprintf(w, "\nSuppress a deliberate finding with `//pbiovet:allow <name> — reason`\non or above the flagged line.\n")
}

// standalone re-execs `go vet -vettool=<self> <args>` after handling the
// human-facing flags itself: -list/-help print the registry, and a bad
// -run value fails here with the full analyzer list rather than once per
// package from the re-exec.
func standalone(args []string) int {
	var patterns []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch trimmed := strings.TrimLeft(arg, "-"); {
		case arg == "-list" || arg == "--list" || arg == "-help" || arg == "--help" || arg == "-h":
			listAnalyzers(os.Stdout)
			return 0
		case strings.HasPrefix(trimmed, "run=") || trimmed == "run":
			names := strings.TrimPrefix(trimmed, "run")
			names = strings.TrimPrefix(names, "=")
			if names == "" { // "-run name,..." with a space
				if i+1 >= len(args) {
					fmt.Fprintln(os.Stderr, "pbiovet: -run needs a comma-separated list of analyzers (see pbiovet -list)")
					return 2
				}
				i++
				names = args[i]
			}
			if _, err := unitchecker.Select(passes.All, names); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			patterns = append(patterns, "-run="+names)
		default:
			patterns = append(patterns, arg)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbiovet:", err)
		return 1
	}
	hasPattern := false
	for _, p := range patterns {
		if !strings.HasPrefix(p, "-") {
			hasPattern = true
		}
	}
	if !hasPattern {
		patterns = append(patterns, "./...")
	}
	cmdArgs := append([]string{"vet", "-vettool=" + self}, patterns...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "pbiovet:", err)
		return 1
	}
	return 0
}
