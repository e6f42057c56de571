// Command benchmark is the repository's standing benchmark: a producer
// and a consumer exchanging the paper's mixed records over loopback TCP,
// directly or through relay.Server, measured end to end and per layer.
// README.md in this directory defines every workload and metric.
//
//	bash benchmark/run.sh --seed 1                      every workload, one JSON document
//	bash benchmark/run.sh --seed 1 --trace 1            the traced run: per-layer metrics, ledgers, expectations
//	bash benchmark/run.sh --seed 1 --check-repeat       the whole set twice, compared against the bounds
//	bash benchmark/run.sh --workload format_mix --seed 1 --seconds 24 --trace 0
//
// With --workload it runs that workload in this process and ends its
// output with the one-line result object BENCHMARK.json's contract asks
// for.  Without, it runs each workload in a fresh child process of the
// same binary, one at a time, so that CPU time, heap and peak RSS are per
// workload and the order does not matter.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	checkRepeat bool
	outDir      string
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, each in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 24, "measuring time of one run; every phase is a fixed share of it")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the plain run (end-to-end metrics)")
	fs.BoolVar(&o.checkRepeat, "check-repeat", false, "run the whole set twice and compare every end-to-end metric against its bound")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds <= 0 || o.seconds > 60 || (o.trace != 0 && o.trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be in (0, 60], -trace 0 or 1, and there are no positional arguments")
		return 2
	}
	var err error
	switch {
	case o.workload != "":
		err = runOne(o)
	case o.checkRepeat:
		err = checkRepeat(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload in this process.  It prints the ledger (traced
// runs), the full result as one JSON line, and last the contract line.
func runOne(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	unitNs := int64(o.seconds * 1e9 / 20)
	var r *result
	var err error
	if o.trace == 1 {
		r, err = runTraced(w, o.seed, unitNs, o.outDir)
	} else {
		r, err = runPlain(w, o.seed, unitNs)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	r.Correct = r.Failed == 0
	if r.Ledger != nil {
		r.Ledger.print(os.Stdout, w.name)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(r); err != nil {
		return err
	}
	if err := enc.Encode(contractLine{r.Correct, r.Attempted, r.Failed, r.Metrics}); err != nil {
		return err
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d records failed: %s", w.name, r.Failed, r.Attempted, r.FirstError)
	}
	return nil
}

// childEnv marks a process as a benchmark child, so that the test binary
// can stand in for the benchmark binary (see bench_test.go).
const childEnv = "PBIO_BENCH_CHILD"

// runChild runs one workload in a fresh child process of this binary and
// returns its result.  The child is owned: its own process group, killed
// as a group on timeout, no inherited pipes, and a bounded wait for its
// output — a stuck child can never wedge the caller.
func runChild(ctx context.Context, o options, name string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-out", o.outDir)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 2 * time.Second
	runErr := cmd.Run()
	// The result is the second-to-last line; a failed child may still
	// have printed one, and its numbers explain the failure.
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var r result
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &r) != nil {
		return nil, fmt.Errorf("%s: child printed no result: %v\n%s", name, runErr, stderr.Bytes())
	}
	if runErr != nil {
		return &r, fmt.Errorf("%s: %v: %s", name, runErr, bytes.TrimSpace(stderr.Bytes()))
	}
	return &r, nil
}

// document is what the all-workloads run prints.
type document struct {
	Benchmark    string             `json:"benchmark"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds_per_run"`
	Traced       bool               `json:"traced"`
	Env          env                `json:"env"`
	Workloads    map[string]*result `json:"workloads"`
	Expectations []expectation      `json:"expectations,omitempty"`
}

// runSet runs every workload, each in its own child, one at a time.
func runSet(ctx context.Context, o options) (map[string]*result, error) {
	out := make(map[string]*result)
	var errs []error
	for i := range workloads {
		name := workloads[i].name
		fmt.Fprintf(os.Stderr, "benchmark: %s ...\n", name)
		r, err := runChild(ctx, o, name)
		if r != nil {
			out[name] = r
		}
		errs = append(errs, err)
	}
	return out, errors.Join(errs...)
}

func runAll(o options) error {
	results, runErr := runSet(context.Background(), o)
	doc := document{
		Benchmark: "pbio producer → (relay) → consumer over loopback TCP",
		Seed:      o.seed, Seconds: o.seconds, Traced: o.trace == 1, Env: readEnv(), Workloads: results,
	}
	if o.trace == 1 {
		for i := range workloads {
			if r := results[workloads[i].name]; r != nil && r.Ledger != nil {
				r.Ledger.print(os.Stderr, r.Workload)
				fmt.Fprintln(os.Stderr)
			}
		}
		doc.Expectations = expectations(results)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return runErr
}

// expectation is one self-consistent performance guideline, after "MPI
// Derived Datatypes: Performance Expectations and Status Quo": reported
// next to the numbers, never failing the run.
type expectation struct {
	Name  string  `json:"name"`
	LHS   float64 `json:"lhs"`
	RHS   float64 `json:"rhs"`
	Holds bool    `json:"holds"`
}

// expectations needs a traced set: the figures are per-layer, except
// the two taken from the traced runs' own untraced reference streams.
func expectations(rs map[string]*result) []expectation {
	get := func(w, m string) (float64, bool) {
		r := rs[w]
		if r == nil {
			return 0, false
		}
		v, ok := r.Metrics[m]
		return v.Value, ok
	}
	var out []expectation
	le := func(name, lw, lm, rw, rm string) {
		l, ok1 := get(lw, lm)
		r, ok2 := get(rw, rm)
		if ok1 && ok2 {
			out = append(out, expectation{name, l, r, l <= r})
		}
	}
	for i := range workloads {
		if w := &workloads[i]; w.decode != decodeView {
			le("compiled ≤ interpreted: dcg.convert_ns_per_record ≤ convert.interp_ns_per_record ("+w.name+")",
				w.name, "dcg.convert_ns_per_record", w.name, "convert.interp_ns_per_record")
		}
	}
	le("batch ≤ per-record: dcg.convert_batch_ns_per_record ≤ dcg.convert_ns_per_record (small_batch_swap)",
		"small_batch_swap", "dcg.convert_batch_ns_per_record", "small_batch_swap", "dcg.convert_ns_per_record")
	if view, swap := rs["small_batch_view"], rs["small_batch_swap"]; view != nil && swap != nil {
		l, r := view.Reference.RecordsPerS, swap.Reference.RecordsPerS
		out = append(out, expectation{
			"view ≥ compiled: records_per_s (small_batch_view) ≥ records_per_s (small_batch_swap)", l, r, l >= r})
	}
	le("batched ≤ per-record: transport.write_ns_per_record (small_batch_swap) ≤ transport.write_ns_per_record (small_single_relay)",
		"small_batch_swap", "transport.write_ns_per_record", "small_single_relay", "transport.write_ns_per_record")
	if l, ok := get("small_single_relay", "relay.added_cpu_ns_per_record"); ok {
		direct := rs["small_single_relay"].Reference.CPUNsPerRecord - l // the direct twin's
		out = append(out, expectation{
			"a relay hop costs at most one direct exchange: relay.added_cpu_ns_per_record ≤ cpu_ns_per_record of the direct twin",
			l, direct, l <= direct})
	}
	return out
}

// checkRepeat runs the whole set twice on the same code and seed and
// compares every workload × end-to-end metric against its bound.
func checkRepeat(o options) error {
	o.trace = 0
	first, err := runSet(context.Background(), o)
	if err != nil {
		return err
	}
	second, err := runSet(context.Background(), o)
	if err != nil {
		return err
	}
	type row struct {
		Workload, Metric, Unit string
		First, Second          float64
		RelDiff, Bound         float64
		Within                 bool
	}
	var rows []row
	excess := 0
	for i := range workloads {
		name := workloads[i].name
		for _, d := range endToEnd {
			a, b := first[name].Metrics[d.name].Value, second[name].Metrics[d.name].Value
			// Worsening of the second run relative to the first, in the
			// metric's own direction; either run may be the noisy one, so
			// the magnitude is what is held to the bound.
			rel := math.Abs(b-a) / a
			ok := rel <= d.bound
			if !ok {
				excess++
			}
			rows = append(rows, row{name, d.name, d.unit, a, b, rel, d.bound, ok})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"seed": o.seed, "seconds_per_run": o.seconds, "env": readEnv(), "rows": rows, "excess": excess}); err != nil {
		return err
	}
	if excess > 0 {
		return fmt.Errorf("%d workload × metric pairs differ between two runs of the same code by more than their bound", excess)
	}
	return nil
}
