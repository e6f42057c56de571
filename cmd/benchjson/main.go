// Command benchjson converts `go test -bench` output on stdin into a
// benchstat-style JSON document on stdout, so benchmark runs can be
// stored as machine-readable artifacts (the repo's BENCH_pr<N>.json perf
// trajectory) and diffed across PRs without parsing text logs.
//
//	go test -bench=. -benchmem ./pbio/ | benchjson > BENCH_pr16.json
//
// Lines that are not benchmark results (package headers, PASS/ok, test
// logs) are ignored.
//
// With -compare, benchjson diffs two stored documents instead and exits
// nonzero when the new run regresses past the thresholds:
//
//	benchjson -compare BENCH_pr16.json BENCH_new.json
//
// allocs/op is compared exactly by default (an extra allocation on a
// hot path is a real change, not noise), B/op with a small relative
// slack, and ns/op with a wide one — wall-clock noise on shared CI
// machines dwarfs real regressions, so ns/op is also skipped entirely
// for low-iteration (smoke) runs, where a single timing quantum can be
// a 10x "regression".  A negative -ns-threshold disables the ns/op
// comparison altogether, for gating allocations against a baseline
// recorded on different hardware.
//
// Note that allocs/op and B/op only amortize one-time setup when the
// run has enough iterations: compare runs taken with -benchtime of at
// least a few thousand iterations, not 1x smoke artifacts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
}

// Doc is the emitted document.
type Doc struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchmark JSON documents: benchjson -compare old.json new.json")
	nsTol := flag.Float64("ns-threshold", 0.30, "relative ns/op regression threshold for -compare; negative disables the ns/op comparison")
	bTol := flag.Float64("bytes-threshold", 0.02, "relative B/op regression threshold for -compare")
	allocTol := flag.Int64("allocs-threshold", 0, "absolute allocs/op regression threshold for -compare")
	minIters := flag.Int64("min-iters", 10, "skip ns/op comparison when either run has fewer iterations (smoke runs)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), thresholds{
			ns: *nsTol, bytes: *bTol, allocs: *allocTol, minIters: *minIters,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) past threshold\n", regressions)
			os.Exit(1)
		}
		return
	}

	doc, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBench converts `go test -bench` text into a Doc.
func parseBench(r io.Reader) (Doc, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var doc Doc
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		// `go test` prints "pkg: repro/pbio" in verbose benchmark output.
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if r, ok := parseLine(line, pkg); ok {
			doc.Benchmarks = append(doc.Benchmarks, r)
		}
	}
	return doc, sc.Err()
}

// parseLine parses one `Benchmark…  N  x ns/op [y B/op] [z allocs/op]
// [w MB/s]` line.
func parseLine(line, pkg string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Package: pkg, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			r.MBPerSec = v
		}
	}
	return r, seen
}

// thresholds configures what counts as a regression.
type thresholds struct {
	ns       float64 // relative ns/op growth tolerated
	bytes    float64 // relative B/op growth tolerated
	allocs   int64   // absolute allocs/op growth tolerated
	minIters int64   // below this, ns/op is noise and is not compared
}

func loadDoc(path string) (Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// benchKey identifies a benchmark across runs.  Names include the
// -cpu suffix (Benchmark…-8), so runs from machines with different
// GOMAXPROCS only match where they genuinely overlap.
func benchKey(r Result) string { return r.Package + "\x00" + r.Name }

// compareFiles diffs two stored runs and returns the regression count.
func compareFiles(w io.Writer, oldPath, newPath string, t thresholds) (int, error) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return 0, err
	}
	return compareDocs(w, oldDoc, newDoc, t), nil
}

// compareDocs prints the diff and returns how many benchmarks regressed
// past the thresholds.
func compareDocs(w io.Writer, oldDoc, newDoc Doc, t thresholds) int {
	oldBy := make(map[string]Result, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		oldBy[benchKey(r)] = r
	}
	regressions := 0
	matched := make(map[string]bool)
	for _, n := range newDoc.Benchmarks {
		o, ok := oldBy[benchKey(n)]
		if !ok {
			fmt.Fprintf(w, "new  %-48s (no baseline)\n", n.Name)
			continue
		}
		matched[benchKey(n)] = true
		var bad []string
		if d := n.AllocsPerOp - o.AllocsPerOp; d > t.allocs {
			bad = append(bad, fmt.Sprintf("allocs/op %d -> %d (+%d > +%d allowed)",
				o.AllocsPerOp, n.AllocsPerOp, d, t.allocs))
		}
		if o.BytesPerOp > 0 {
			if g := rel(float64(o.BytesPerOp), float64(n.BytesPerOp)); g > t.bytes {
				bad = append(bad, fmt.Sprintf("B/op %d -> %d (%+.1f%% > %.1f%% allowed)",
					o.BytesPerOp, n.BytesPerOp, 100*g, 100*t.bytes))
			}
		}
		nsNote := ""
		if t.ns < 0 {
			nsNote = " [ns/op not compared: disabled]"
		} else if o.Iterations < t.minIters || n.Iterations < t.minIters {
			nsNote = " [ns/op not compared: smoke run]"
		} else if g := rel(o.NsPerOp, n.NsPerOp); g > t.ns {
			bad = append(bad, fmt.Sprintf("ns/op %.1f -> %.1f (%+.1f%% > %.1f%% allowed)",
				o.NsPerOp, n.NsPerOp, 100*g, 100*t.ns))
		}
		status := "ok  "
		if len(bad) > 0 {
			status = "FAIL"
			regressions++
		}
		fmt.Fprintf(w, "%s %-48s ns/op %10.1f -> %-10.1f B/op %6d -> %-6d allocs/op %3d -> %-3d%s\n",
			status, n.Name, o.NsPerOp, n.NsPerOp, o.BytesPerOp, n.BytesPerOp,
			o.AllocsPerOp, n.AllocsPerOp, nsNote)
		for _, b := range bad {
			fmt.Fprintf(w, "     %s: %s\n", n.Name, b)
		}
	}
	for _, o := range oldDoc.Benchmarks {
		if !matched[benchKey(o)] {
			fmt.Fprintf(w, "gone %-48s (in baseline, not in new run)\n", o.Name)
		}
	}
	return regressions
}

// rel returns the relative growth from old to new (negative = improved).
func rel(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return (new - old) / old
}
