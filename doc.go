// Package repro is the root of a Go reproduction of "Efficient Wire
// Formats for High Performance Computing" (Bustamante, Eisenhauer,
// Schwan, Widener — SC 2000).
//
// The public library lives in package repro/pbio; the substrates it is
// built on live under internal/ (see DESIGN.md for the inventory).  The
// paper's figures are regenerated by the wireperf command over
// internal/bench; the standing benchmark, end to end and per layer, is
// the nested module under benchmark/.
package repro
