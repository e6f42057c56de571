// Command wireperf regenerates the evaluation tables of "Efficient Wire
// Formats for High Performance Computing" (SC 2000): Figures 1-7, the
// four tables for questions the paper's text asks and no figure answers
// (homogeneous decode, wire sizes, the XML roundtrip Figure 5 left out,
// live loopback roundtrips) and the headline claims, using the
// mixed-field workload at the paper's four message sizes.
//
// Usage:
//
//	wireperf            # run everything
//	wireperf -fig 4     # one figure
//	wireperf -claims    # headline ratios and the figures' orderings only
//
// The claims table checks the orderings Figures 2-7 rest on; wireperf
// exits 1 when one does not hold.  Every other measurement question has
// its row in the standing benchmark (benchmark/run.sh) or a testing.B.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (1-7); 0 runs all")
	claims := flag.Bool("claims", false, "compute the headline claims and check the figures' orderings only")
	flag.Parse()

	figures := map[int]func() *bench.Table{
		1: bench.Fig1, 2: bench.Fig2, 3: bench.Fig3, 4: bench.Fig4,
		5: bench.Fig5, 6: bench.Fig6, 7: bench.Fig7,
	}
	if *fig != 0 {
		fn, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "wireperf: no figure %d (have 1-7)\n", *fig)
			os.Exit(2)
		}
		fn().Fprint(os.Stdout)
		return
	}
	if !*claims {
		for i := 1; i <= 7; i++ {
			figures[i]().Fprint(os.Stdout)
		}
		for _, table := range []func() *bench.Table{
			bench.Homo, bench.WireSizes, bench.XMLRoundTrip, bench.LiveRoundTrip,
		} {
			table().Fprint(os.Stdout)
		}
	}
	t, err := bench.Claims()
	t.Fprint(os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wireperf: %v\n", err)
		os.Exit(1)
	}
}
