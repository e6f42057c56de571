package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
)

// metricDef declares one metric.  BENCHMARK.json repeats these tables;
// the smoke test fails if the two ever disagree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: relative worsening that is a regression
}

var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher", 0.25},
	{"cpu_ns_per_record", "ns", "lower", 0.25},
	{"delivery_p25_us", "us", "lower", 0.10},
	{"wire_bytes_per_record", "bytes", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is in pipeline order, which is also the ledger's.
var perLayer = []metricDef{
	{name: "native.set_ns_per_record", unit: "ns", better: "lower"},
	{name: "pbio.write_ns_per_record", unit: "ns", better: "lower"},
	{name: "pbio.write_allocs_per_record", unit: "allocs", better: "lower"},
	{name: "transport.write_ns_per_record", unit: "ns", better: "lower"},
	{name: "transport.checksum_ns_per_record", unit: "ns", better: "lower"},
	{name: "transport.overhead_bytes_per_record", unit: "bytes", better: "lower"},
	{name: "sock.write_ns_per_record", unit: "ns", better: "lower"},
	{name: "relay.hop_p50_us", unit: "us", better: "lower"},
	{name: "relay.hop_p99_us", unit: "us", better: "lower"},
	{name: "relay.added_delivery_p25_us", unit: "us", better: "lower"},
	{name: "relay.added_cpu_ns_per_record", unit: "ns", better: "lower"},
	{name: "relay.frames_in", unit: "count", better: "higher"},
	{name: "relay.frames_out", unit: "count", better: "higher"},
	{name: "relay.dropped", unit: "count", better: "lower"},
	{name: "bufpool.getput_ns", unit: "ns", better: "lower"},
	{name: "sock.read_wait_ns_per_record", unit: "ns", better: "lower"},
	{name: "sock.reads_per_record", unit: "count", better: "lower"},
	{name: "sock.bytes_per_read", unit: "bytes", better: "higher"},
	{name: "transport.read_ns_per_record", unit: "ns", better: "lower"},
	{name: "pbio.read_ns_per_record", unit: "ns", better: "lower"},
	{name: "pbio.read_allocs_per_record", unit: "allocs", better: "lower"},
	{name: "pbio.decode_ns_per_record", unit: "ns", better: "lower"},
	{name: "dcg.convert_ns_per_record", unit: "ns", better: "lower"},
	{name: "dcg.convert_batch_ns_per_record", unit: "ns", better: "lower"},
	{name: "dcg.cache_get_ns", unit: "ns", better: "lower"},
	{name: "convert.interp_ns_per_record", unit: "ns", better: "lower"},
	{name: "native.get_ns_per_record", unit: "ns", better: "lower"},
	{name: "pbio.delivery_p50_us", unit: "us", better: "lower"},
	{name: "pbio.delivery_p99_us", unit: "us", better: "lower"},
	{name: "pbio.delivery_p999_us", unit: "us", better: "lower"},
	{name: "wire.layout_us", unit: "us", better: "lower"},
	{name: "wire.meta_encode_us", unit: "us", better: "lower"},
	{name: "wire.meta_decode_us", unit: "us", better: "lower"},
	{name: "convert.plan_us", unit: "us", better: "lower"},
	{name: "dcg.compile_us", unit: "us", better: "lower"},
	{name: "dcg.compile_batch_us", unit: "us", better: "lower"},
	{name: "fmtserver.register_us", unit: "us", better: "lower"},
	{name: "fmtserver.lookup_us", unit: "us", better: "lower"},
	{name: "allocs_per_record", unit: "allocs", better: "lower"},
	{name: "failed_ratio", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "ledger.residual_ns_per_record", unit: "ns", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase records how long a phase ran and how many samples it produced.
type phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Samples int     `json:"samples"`
	Of      string  `json:"of"`
}

// ledgerRow is one line of the per-workload cost ledger: what a layer
// costs per delivered record.  The "cpu" rows add up to Sum; a "part" row
// is inside the row above it, and a "wall" row is a wait (busy + blocked)
// that is not CPU.
type ledgerRow struct {
	Layer       string  `json:"layer"`
	NsPerRecord float64 `json:"ns_per_record"`
	Kind        string  `json:"kind"`
}

// ledger reconciles the layers against the end-to-end CPU per record.
type ledger struct {
	Rows        []ledgerRow `json:"rows"`
	Sum         float64     `json:"sum_ns_per_record"`
	EndToEnd    float64     `json:"cpu_ns_per_record_traced"`
	Untraced    float64     `json:"cpu_ns_per_record_untraced"`
	Residual    float64     `json:"residual_ns_per_record"`
	ResidualPct float64     `json:"residual_pct"`
	Flagged     bool        `json:"flagged"` // residual beyond a quarter of the total
}

// result is everything one run of one workload reports.
type result struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Oracled    int64             `json:"records_byte_compared_with_interp"`
	Metrics    map[string]metric `json:"metrics"`
	// Derived figures printed beside the metrics; not gated.
	PayloadMBPerS float64 `json:"payload_mb_per_s,omitempty"`
	// SustainedPerS is all stream windows' records over all their time,
	// disturbed windows included: what records_per_s would be as a mean.
	SustainedPerS float64 `json:"sustained_records_per_s,omitempty"`
	RecordBytes   float64 `json:"record_bytes"`
	Phases        []phase `json:"phases"`
	// The samples behind the figures, to explain a noisy run afterwards.
	WindowRates   []float64 `json:"records_per_s_by_window,omitempty"`
	WindowCPU     []float64 `json:"cpu_ns_per_record_by_window,omitempty"`
	SliceDelivery []float64 `json:"delivery_p25_us_by_slice,omitempty"`
	DeliveryQ     []float64 `json:"delivery_us_p10_p25_p50_p75_p90,omitempty"`
	ColdStartQ    []float64 `json:"cold_start_us_p10_p25_p50_p75_p90,omitempty"`
	Ledger        *ledger   `json:"ledger,omitempty"`
	// Reference is a traced run's own untraced stream: what its tracing
	// overhead, and the cross-workload expectations, are measured against.
	Reference *reference `json:"untraced_reference,omitempty"`
	TraceFile string     `json:"trace_file,omitempty"`
	Env       env        `json:"env"`
}

type reference struct {
	RecordsPerS    float64 `json:"records_per_s"`
	CPUNsPerRecord float64 `json:"cpu_ns_per_record"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// env is where and on what a run was made — enough to explain a noisy
// one after the fact.
type env struct {
	Commit     string  `json:"commit"`
	Link       string  `json:"link"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1_at_start"`
	ClockNs    int64   `json:"clock_read_ns"`
}

func readEnv() env {
	e := env{
		Commit: "unknown", Link: "TCP over host loopback, not a real link",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		ClockNs: clockCost,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+modified"
				}
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscan(string(b), &e.Load1)
	}
	return e
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// Run lengths, in units of -seconds/20: identical on every commit.
const (
	warmupUnits     = 1  // saturating stream before anything is measured
	rounds          = 20 // the plain run alternates stream, lockstep and cold starts
	windowsPerUnit  = 40 // a stream window or a lockstep slice is a fortieth of a unit
	roundDiscard    = 4  // stream windows discarded at the start of a round
	roundWindows    = 24 // stream windows per round
	roundSlices     = 8  // lockstep slices per round
	roundColdStarts = 10
	wireCountN      = 65536
	tracedUnits     = 4
	tracedLockstep  = 3
	twinUnits       = 3
	twinLockstep    = 2
	probesPerWindow = 16 // one probe gets a sixteenth of a unit
)

// runPlain is the untraced run: the only source of end-to-end metrics.
// One session runs rounds of stream windows, lockstep slices and a batch
// of cold starts, so that every metric samples the whole run: a slow
// episode of the host falls on a share of each metric's samples, not on
// all the samples of one.
func runPlain(w *workload, seed uint64, unitNs int64) (*result, error) {
	fx, err := newFixtures(w, seed)
	if err != nil {
		return nil, err
	}
	r := newResult(fx, false)
	s, err := newSession(fx, w.relay, false)
	if err != nil {
		return nil, err
	}
	if err := s.c.armOracle(); err != nil {
		return nil, err
	}
	t0 := now()
	if _, err := s.stream(unitNs, warmupUnits*unitNs, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.phase("warm_up", now()-t0, 0, "discarded")

	windowNs := unitNs / windowsPerUnit
	var ws []window
	var delivery, setups []int64
	bestP25 := math.Inf(1)
	var streamNs, lockNs, coldNs int64
	for round := 0; round < rounds; round++ {
		t0 = now()
		got, err := s.stream(windowNs, roundDiscard*windowNs, roundWindows)
		if err != nil {
			return nil, fmt.Errorf("stream, round %d: %w", round, err)
		}
		ws = append(ws, got...)
		t1 := now()
		ls, p25s, err := s.lockstepSlices(roundSlices, windowNs)
		if err != nil {
			return nil, fmt.Errorf("lockstep, round %d: %w", round, err)
		}
		delivery = append(delivery, ls.deliveryNs...)
		bestP25 = min(bestP25, ls.bestP25Ns)
		for _, v := range p25s {
			r.SliceDelivery = append(r.SliceDelivery, v/1e3)
		}
		t2 := now()
		// Cold starts run while the CPU is as warm as for the other
		// phases: in a process's first second they take half as long again.
		for i := 0; i < roundColdStarts; i++ {
			ns, attempted, failed, err := coldStart(fx)
			if err != nil {
				return nil, fmt.Errorf("cold start, round %d: %w", round, err)
			}
			setups = append(setups, ns)
			r.Attempted += attempted
			r.Failed += failed
		}
		streamNs, lockNs, coldNs = streamNs+t1-t0, lockNs+t2-t1, coldNs+now()-t2
	}
	r.close(s)
	r.phase("stream", streamNs, len(ws), fmt.Sprintf("windows of %d ms, %d per round after %d discarded", windowNs/1e6, roundWindows, roundDiscard))
	r.phase("lockstep", lockNs, len(delivery), fmt.Sprintf("frames, one in flight, in %d slices of %d ms", rounds*roundSlices, windowNs/1e6))
	r.phase("cold_start", coldNs, len(setups), "exchanges from nothing")
	slices.Sort(delivery)
	slices.Sort(setups)
	st, err := summarise(w.name, ws)
	if err != nil {
		return nil, err
	}

	wb, err := wireBytes(fx, wireCountN)
	if err != nil {
		return nil, fmt.Errorf("wire bytes: %w", err)
	}
	r.set(endToEnd, "records_per_s", st.recordsPerS)
	r.set(endToEnd, "cpu_ns_per_record", st.cpuNs)
	r.set(endToEnd, "delivery_p25_us", bestP25/1e3)
	r.set(endToEnd, "wire_bytes_per_record", float64(wb)/wireCountN)
	r.set(endToEnd, "peak_rss_mb", peakRSSMB())
	r.set(endToEnd, "setup_s", percentile(setups, 0.5)/1e9)
	r.PayloadMBPerS = st.recordsPerS * fx.meanRecord / 1e6
	r.SustainedPerS = st.meanRecordsPerS
	for _, w := range ws {
		r.WindowRates = append(r.WindowRates, math.Round(w.recordsPerS()))
		cpu, _ := w.cpuNsPerRecord()
		r.WindowCPU = append(r.WindowCPU, math.Round(cpu))
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		r.DeliveryQ = append(r.DeliveryQ, percentile(delivery, q)/1e3)
		r.ColdStartQ = append(r.ColdStartQ, percentile(setups, q)/1e3)
	}
	return r, nil
}

func newResult(fx *fixtures, traced bool) *result {
	return &result{
		Workload: fx.w.name, Why: fx.w.why, Seed: fx.seed, Traced: traced,
		Metrics: make(map[string]metric), RecordBytes: fx.meanRecord, Env: readEnv(),
	}
}

func (r *result) phase(name string, ns int64, samples int, of string) {
	r.Phases = append(r.Phases, phase{Name: name, Seconds: float64(ns) / 1e9, Samples: samples, Of: of})
}

// exchange opens a session of the traced run and runs its phases: one
// unit of warm-up, streamUnits of stream windows, then lockstep when
// lockUnits is not zero.  label tells the run's several exchanges apart.
func (r *result) exchange(fx *fixtures, label string, withRelay, traced bool, unitNs int64, streamUnits, lockUnits int) (*session, streamResult, lockstepResult, error) {
	var st streamResult
	var ls lockstepResult
	s, err := newSession(fx, withRelay, traced)
	if err != nil {
		return nil, st, ls, err
	}
	if err := s.c.armOracle(); err != nil {
		return nil, st, ls, err
	}
	t0 := now()
	windowNs := unitNs / windowsPerUnit
	ws, err := s.stream(windowNs, unitNs, streamUnits*windowsPerUnit)
	if err != nil {
		return nil, st, ls, fmt.Errorf("%sstream: %w", label, err)
	}
	if st, err = summarise(label+fx.w.name, ws); err != nil {
		return nil, st, ls, err
	}
	r.phase(label+"warm_up+stream", now()-t0, len(ws), fmt.Sprintf("windows of %d ms after %d ms discarded", windowNs/1e6, unitNs/1e6))
	if lockUnits > 0 {
		t0 = now()
		if ls, _, err = s.lockstepSlices(lockUnits*windowsPerUnit, windowNs); err != nil {
			return nil, st, ls, fmt.Errorf("%slockstep: %w", label, err)
		}
		r.phase(label+"lockstep", now()-t0, len(ls.deliveryNs), fmt.Sprintf("frames, one in flight, in slices of %d ms", windowNs/1e6))
	}
	return s, st, ls, nil
}

// close finishes a session and folds its books into the result.
func (r *result) close(s *session) *relayBooks {
	attempted, failed, books, firstErr := s.finish()
	r.Attempted += attempted
	r.Failed += failed
	r.Oracled += s.c.oracled
	if r.FirstError == "" {
		r.FirstError = firstErr
	}
	return books
}

// runTraced is the separate traced run: per-layer metrics only.  It
// repeats the workload untraced (shorter than runPlain does) so that the
// tracing overhead is a difference between two runs of one process.
func runTraced(w *workload, seed uint64, unitNs int64, outDir string) (*result, error) {
	fx, err := newFixtures(w, seed)
	if err != nil {
		return nil, err
	}
	r := newResult(fx, true)
	set := func(name string, v float64) { r.set(perLayer, name, v) }

	// Untraced reference, then the traced repeat.
	s, plain, _, err := r.exchange(fx, "untraced ", w.relay, false, unitNs, tracedUnits, 0)
	if err != nil {
		return nil, err
	}
	r.close(s)
	r.Reference = &reference{plain.recordsPerS, plain.meanCPUNs}
	s, traced, ls, err := r.exchange(fx, "traced ", w.relay, true, unitNs, tracedUnits, tracedLockstep)
	if err != nil {
		return nil, err
	}
	ptr, ctr, rconn := s.p.tr, s.c.tr, s.c.rconn
	delivered := float64(s.c.seq)
	books := r.close(s)
	if err := writeSpans(outDir, w.name, ptr, ctr); err != nil {
		return nil, err
	}
	r.TraceFile = outDir + "/trace-" + w.name + ".json"

	pm, err := probes(fx, unitNs/probesPerWindow)
	if err != nil {
		return nil, err
	}
	for name, v := range pm {
		set(name, v)
	}
	wb, err := wireBytes(fx, wireCountN)
	if err != nil {
		return nil, fmt.Errorf("wire bytes: %w", err)
	}

	set("native.set_ns_per_record", ptr.perRecord(spanNativeSet))
	set("native.get_ns_per_record", ctr.perRecord(spanNativeGet))
	set("pbio.read_ns_per_record", ctr.perRecord(spanRead))
	set("pbio.decode_ns_per_record", ctr.perRecord(spanDecode))
	set("sock.write_ns_per_record", ptr.perRecord(spanWriteConn)-pm["pbio.write_ns_per_record"])
	set("sock.read_wait_ns_per_record", ctr.perRecord(spanSockRead))
	set("sock.reads_per_record", float64(rconn.reads)/delivered)
	set("sock.bytes_per_read", float64(rconn.bytes)/float64(rconn.reads))
	set("transport.overhead_bytes_per_record", float64(wb)/wireCountN-fx.meanRecord)
	set("pbio.delivery_p50_us", percentile(ls.deliveryNs, 0.5)/1e3)
	set("pbio.delivery_p99_us", percentile(ls.deliveryNs, 0.99)/1e3)
	set("pbio.delivery_p999_us", percentile(ls.deliveryNs, 0.999)/1e3)
	set("allocs_per_record", plain.allocs)
	set("failed_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)))
	set("trace.overhead_pct", 100*(traced.meanCPUNs-plain.meanCPUNs)/plain.meanCPUNs)

	// relay.*: zero on a direct workload, where no relay exists.
	relayUserNs := 0.0
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "relay.") {
			set(d.name, 0)
		}
	}
	if w.relay {
		// The direct twin: the same configuration with no relay between.
		s, twin, twinLs, err := r.exchange(fx, "direct twin ", false, false, unitNs, twinUnits, twinLockstep)
		if err != nil {
			return nil, err
		}
		r.close(s)
		set("relay.hop_p50_us", percentile(ls.hopNs, 0.5)/1e3)
		set("relay.hop_p99_us", percentile(ls.hopNs, 0.99)/1e3)
		set("relay.added_delivery_p25_us", (ls.bestP25Ns-twinLs.bestP25Ns)/1e3)
		set("relay.added_cpu_ns_per_record", plain.meanCPUNs-twin.meanCPUNs)
		set("relay.frames_in", float64(books.framesIn))
		set("relay.frames_out", float64(books.framesOut))
		set("relay.dropped", float64(books.dropped))
		relayUserNs = plain.meanUserNs - twin.meanUserNs
	}

	r.Ledger = buildLedger(w, r.Metrics, plain, traced, relayUserNs)
	set("ledger.residual_ns_per_record", r.Ledger.Residual)
	return r, nil
}

// buildLedger lays the per-layer figures out in pipeline order and
// reconciles them with the traced run's CPU per record.  What sums is
// CPU: the user-space layers' self times plus the kernel's share (the
// process's system time, which is the sock layer's busy time).  The
// sock.* rows are wall-clock — busy and blocked — and show which side
// waits; they and the indented parts are not added.
func buildLedger(w *workload, m map[string]metric, plain, traced streamResult, relayUserNs float64) *ledger {
	v := func(name string) float64 { return m[name].Value }
	convertPart := "dcg.convert_ns_per_record"
	if w.decode == decodeBatch {
		convertPart = "dcg.convert_batch_ns_per_record"
	}
	rows := []ledgerRow{
		{"native.set", v("native.set_ns_per_record"), "cpu"},
		{"pbio.write", v("pbio.write_ns_per_record"), "cpu"},
		{"  transport.write", v("transport.write_ns_per_record"), "part"},
		{"    transport.checksum", v("transport.checksum_ns_per_record"), "part"},
		{"sock.write (busy+blocked)", v("sock.write_ns_per_record"), "wall"},
	}
	if w.relay {
		rows = append(rows,
			ledgerRow{"relay (user CPU added)", relayUserNs, "cpu"},
			ledgerRow{"  bufpool.getput", v("bufpool.getput_ns"), "part"})
	}
	rows = append(rows,
		ledgerRow{"sock.read (busy+blocked)", v("sock.read_wait_ns_per_record"), "wall"},
		ledgerRow{"pbio.read (self)", v("pbio.read_ns_per_record"), "cpu"},
		ledgerRow{"  transport.read", v("transport.read_ns_per_record"), "part"},
		ledgerRow{"pbio.decode", v("pbio.decode_ns_per_record"), "cpu"},
	)
	if w.formats > 1 {
		// Only a stream that changes format misses the reader's memo.
		rows = append(rows, ledgerRow{"  dcg.cache_get", v("dcg.cache_get_ns"), "part"})
	}
	if w.decode != decodeView {
		rows = append(rows, ledgerRow{"  " + strings.TrimSuffix(convertPart, "_ns_per_record"), v(convertPart), "part"})
	}
	rows = append(rows,
		ledgerRow{"native.get", v("native.get_ns_per_record"), "cpu"},
		ledgerRow{"kernel (system CPU: sock busy)", traced.meanCPUNs - traced.meanUserNs, "cpu"},
	)
	l := &ledger{Rows: rows, EndToEnd: traced.meanCPUNs, Untraced: plain.meanCPUNs}
	for _, row := range rows {
		if row.Kind == "cpu" {
			l.Sum += row.NsPerRecord
		}
	}
	l.Residual = l.EndToEnd - l.Sum
	l.ResidualPct = 100 * l.Residual / l.EndToEnd
	l.Flagged = math.Abs(l.ResidualPct) > 25
	return l
}

// print renders the ledger as the table ROADMAP item 1 asks for.
func (l *ledger) print(out io.Writer, name string) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "ledger: %s\tns/record\tkind\n", name)
	for _, row := range l.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%s\n", row.Layer, row.NsPerRecord, row.Kind)
	}
	fmt.Fprintf(tw, "sum of cpu rows\t%.1f\t\n", l.Sum)
	fmt.Fprintf(tw, "end to end: cpu_ns_per_record, traced run\t%.1f\t(untraced %.1f)\n", l.EndToEnd, l.Untraced)
	flag := ""
	if l.Flagged {
		flag = "  FLAGGED: beyond 25 % of the total"
	}
	fmt.Fprintf(tw, "residual (runtime, scheduler, GC, harness)\t%.1f\t%.1f %%%s\n", l.Residual, l.ResidualPct, flag)
	tw.Flush()
}
