package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// all-workloads run re-executes os.Executable() for every workload, and
// under `go test` that is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// smokeSeconds shortens every piece to a fortieth of its real length (a
// unit of 30 ms, windows and slices of 0.75 ms), so that both passes over
// all five workloads take well under 15 s on two cores.
const smokeSeconds = 0.6

func finite(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", r.Workload, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", r.Workload, d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", r.Workload, d.name, m.Unit, d.unit)
		}
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
}

func TestSmokePlain(t *testing.T) {
	results, err := runSet(context.Background(), options{seed: 7, seconds: smokeSeconds, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || r.Oracled == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d byte-compared=%d: %s",
				r.Workload, r.Correct, r.Failed, r.Attempted, r.Oracled, r.FirstError)
		}
		finite(t, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, d.name, r.Metrics[d.name].Value)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	results, err := runSet(context.Background(), options{seed: 7, seconds: smokeSeconds, trace: 1, outDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		finite(t, r, perLayer)
		if r.Failed != 0 || r.Metrics["failed_ratio"].Value != 0 {
			t.Errorf("%s: failed=%d failed_ratio=%v: %s", r.Workload, r.Failed, r.Metrics["failed_ratio"].Value, r.FirstError)
		}
		if r.Ledger == nil || len(r.Ledger.Rows) == 0 {
			t.Errorf("%s: traced run printed no ledger", r.Workload)
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
		// Each workload bypasses the layers its row says it bypasses.
		for name, m := range r.Metrics {
			conversion := strings.HasPrefix(name, "dcg.") || strings.HasPrefix(name, "convert.")
			viewOnly := workloadByName(r.Workload).decode == decodeView
			if conversion && viewOnly != (m.Value == 0) {
				t.Errorf("%s: %s = %v", r.Workload, name, m.Value)
			}
			if strings.HasPrefix(name, "relay.") && !workloadByName(r.Workload).relay && m.Value != 0 {
				t.Errorf("%s: %s = %v on a workload with no relay", r.Workload, name, m.Value)
			}
		}
	}
	books := results["small_single_relay"].Metrics
	if books["relay.frames_in"].Value == 0 || books["relay.frames_in"] != books["relay.frames_out"] || books["relay.dropped"].Value != 0 {
		t.Errorf("relay books: in=%v out=%v dropped=%v", books["relay.frames_in"].Value, books["relay.frames_out"].Value, books["relay.dropped"].Value)
	}
	if got := len(expectations(results)); got != 7 {
		t.Errorf("%d expectations reported, want 7", got)
	}
}

// A child that outlives its deadline is killed with its process group and
// waited for; the caller gets an error, not a hang.
func TestChildIsOwned(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := runChild(ctx, options{seed: 1, seconds: 24, outDir: t.TempDir()}, "large_single_swap")
	if err == nil {
		t.Fatal("a 24 s child finished inside a 300 ms deadline")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("runChild returned after %v", d)
	}
}

// BENCHMARK.json repeats the tables in report.go and workload.go and must
// stay inside the limits its contract sets.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricJSON `json:"end_to_end"`
		PerLayer   []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	// 4 + 22 runs per workload must fit the driver's cap with two builds.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+3) > 3420-240 {
		t.Errorf("%d runs of %d s do not fit in 3420 s", runs, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !name.MatchString(w.Name) {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, want %v", kind, g.Name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
