package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"

	"repro/internal/flightrec"
	"repro/internal/relay"
)

// link is the topology between the producer's conn and the consumer's:
// one loopback TCP connection, or two with a relay.Server between them.
type link struct {
	prod *net.TCPConn // the producer writes here; never wrapped
	cons net.Conn     // the consumer reads here; a *timedConn on traced runs

	srv       *relay.Server
	relayProd *timedConn // traced relay runs: the conn the relay reads producers from
	closers   []io.Closer
	dialNs    int64 // time spent in tcpPair: the kernel's handshakes, not the program's set-up
}

// tcpPair returns the two ends of a fresh loopback TCP connection.
func (l *link) tcpPair() (dialed, accepted *net.TCPConn, err error) {
	t0 := now()
	defer func() { l.dialNs += now() - t0 }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a, err := ln.Accept()
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d.(*net.TCPConn), a.(*net.TCPConn), nil
}

// newLink builds the workload's topology.  withRelay is w.relay except on
// the direct twin of a relay workload.
func newLink(withRelay, traced bool) (*link, error) {
	l := &link{}
	if !withRelay {
		d, a, err := l.tcpPair()
		if err != nil {
			return nil, err
		}
		l.prod, l.cons = d, a
		l.closers = []io.Closer{d, a}
	} else {
		// cmd/pbio-relay's defaults, except that a full queue blocks the
		// producer so that no record is ever dropped.
		l.srv = relay.NewServer()
		l.srv.SetQueue(256, relay.PolicyBlock)
		l.srv.SetFlight(flightrec.New("pbio-bench", 4096))
		cd, ca, err := l.tcpPair()
		if err != nil {
			return nil, err
		}
		pd, pa, err := l.tcpPair()
		if err != nil {
			cd.Close()
			ca.Close()
			return nil, err
		}
		l.closers = []io.Closer{pd, cd}
		l.srv.AddConsumerConn(ca)
		if traced {
			l.relayProd = &timedConn{Conn: pa}
			l.srv.AddProducerConn(l.relayProd)
		} else {
			l.srv.AddProducerConn(pa)
		}
		l.prod, l.cons = pd, cd
	}
	if traced {
		l.cons = &timedConn{Conn: l.cons}
	}
	return l, nil
}

func (l *link) close() {
	for _, c := range l.closers {
		c.Close()
	}
	if l.srv != nil {
		l.srv.Close()
	}
}

// session is one producer and one consumer joined by a link.
type session struct {
	fx   *fixtures
	link *link
	p    *producer
	c    *consumer
}

// newSession opens the link and both endpoints.  On a traced session the
// consumer's conn is wrapped and both sides record spans.
func newSession(fx *fixtures, withRelay, traced bool) (*session, error) {
	l, err := newLink(withRelay, traced)
	if err != nil {
		return nil, err
	}
	p, err := newProducer(fx, l.prod)
	if err != nil {
		l.close()
		return nil, err
	}
	c, err := newConsumer(fx, l.cons)
	if err != nil {
		l.close()
		return nil, err
	}
	if traced {
		p.tr = newTracer("producer", fx.w.batch)
		c.tr = newTracer("consumer", fx.w.batch)
		c.rconn = l.cons.(*timedConn)
	}
	return &session{fx: fx, link: l, p: p, c: c}, nil
}

// coldStart times one exchange from nothing: two fresh contexts (and a
// fresh relay.Server), Register, and one frame of every format written,
// decoded and verified — layout, meta encode and decode, match, plan and
// DCG compile are all paid inside it.  The connections are fresh too, but
// listen, dial and accept are the kernel's work and are not timed.
func coldStart(fx *fixtures) (ns, attempted, failed int64, err error) {
	t0 := now()
	s, err := newSession(fx, fx.w.relay, false)
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.link.close()
	setup := now() - t0 - s.link.dialNs
	if err := s.c.armOracle(); err != nil { // harness equipment, untimed
		return 0, 0, 0, err
	}
	t0 = now()
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < len(s.p.recs); i++ {
			if err := s.p.writeFrame(); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	want := len(s.p.recs) * fx.w.batch
	for got := 0; got < want; {
		n, _, err := s.c.readFrame()
		if err != nil {
			return 0, 0, 0, errors.Join(err, <-errc)
		}
		got += n
	}
	total := setup + now() - t0
	if err := <-errc; err != nil {
		return 0, 0, 0, err
	}
	return total, int64(want), s.c.failed + int64(want) - s.c.seq, nil
}

// cut is the state of the exchange at a window boundary, read by the
// consumer between two frames.
type cut struct {
	t       int64 // now()
	written int64 // records the producer has handed to the writer
	read    int64 // records the consumer has verified
	cpuNs   int64 // process user+sys
	userNs  int64
	mallocs uint64
}

func rusage() (user, sys int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano(), ru.Stime.Nano()
}

var mallocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// mallocs reads the allocation counter without stopping the world.
func mallocs() uint64 {
	metrics.Read(mallocSample)
	return mallocSample[0].Value.Uint64()
}

func (s *session) takeCut(t int64) cut {
	u, sys := rusage()
	return cut{t: t, written: s.p.sent.Load(), read: s.c.seq, cpuNs: u + sys, userNs: u, mallocs: mallocs()}
}

// window is what happened between two cuts.
type window struct {
	ns, written, read, cpuNs, userNs int64
	mallocs                          uint64
}

// recordsPerS is the rate of the slower side.  The two sides differ by
// what the socket buffers took up or gave back: a consumer that was held
// up drains megabytes of backlog faster than the pipeline can sustain,
// and the slower side's count leaves that out.
func (w window) recordsPerS() float64 {
	return float64(min(w.written, w.read)) / (float64(w.ns) / 1e9)
}

// cpuNsPerRecord charges the window's CPU to the mean of the two sides'
// counts, since each side spent its share of it.  ok is false for a window
// in which nothing moved.
func (w window) cpuNsPerRecord() (v float64, ok bool) {
	if w.written+w.read == 0 {
		return 0, false
	}
	return float64(w.cpuNs) / (float64(w.written+w.read) / 2), true
}

// streamResult summarises stream windows.  README.md, "Why the best
// window", gives the reason and the measurements: whatever disturbs a
// window on this shared host slows it and never speeds it up, and the
// disturbed share of a run varies from none to nearly all, so the figures
// that repeat are those of the least disturbed windows.
type streamResult struct {
	recordsPerS float64 // the fastest window
	cpuNs       float64 // per record: the cheapest of the bestWindows fastest windows
	// Whole-stream figures per record, for the traced run: its spans cover
	// every frame, so what they are reconciled with must too.
	meanCPUNs, meanUserNs float64
	meanRecordsPerS       float64 // records verified / time, over all windows
	allocs                float64 // a count
}

// bestWindows is how many of the fastest windows the CPU figure is the
// lowest of.  The cheapest windows of all are not the least disturbed
// ones: when the two sides fall into alternation on one core the record
// never leaves that core's cache and costs a third less CPU, at half the
// rate.
const bestWindows = 10

func summarise(name string, ws []window) (streamResult, error) {
	var st streamResult
	var sum window
	for _, w := range ws {
		sum.ns += w.ns
		sum.written += w.written
		sum.read += w.read
		sum.cpuNs += w.cpuNs
		sum.userNs += w.userNs
		sum.mallocs += w.mallocs
	}
	fastest := slices.Clone(ws)
	slices.SortFunc(fastest, func(a, b window) int { return cmp.Compare(b.recordsPerS(), a.recordsPerS()) })
	fastest = fastest[:min(bestWindows, len(fastest))]
	if len(fastest) == 0 || fastest[len(fastest)-1].recordsPerS() == 0 || sum.cpuNs == 0 {
		return st, fmt.Errorf("%s: fewer than %d stream windows of %d delivered a record", name, bestWindows, len(ws))
	}
	st.recordsPerS = fastest[0].recordsPerS()
	st.cpuNs = math.Inf(1)
	for _, w := range fastest {
		v, _ := w.cpuNsPerRecord()
		st.cpuNs = min(st.cpuNs, v)
	}
	st.meanCPUNs, _ = sum.cpuNsPerRecord()
	st.meanRecordsPerS = float64(sum.read) / (float64(sum.ns) / 1e9)
	st.meanUserNs = st.meanCPUNs * float64(sum.userNs) / float64(sum.cpuNs)
	st.allocs = float64(sum.mallocs) / float64(sum.read)
	return st, nil
}

// stream runs the saturating closed loop: the producer writes as fast as
// TCP backpressure lets it, the consumer decodes and verifies, and cuts
// windows by reading the clock once per frame.  The first discardNs are
// not measured.
func (s *session) stream(windowNs, discardNs int64, windows int) ([]window, error) {
	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if err := s.p.writeFrame(); err != nil {
				errc <- err
				return
			}
		}
		errc <- s.p.writeSentinel()
	}()
	cuts := make([]cut, 0, windows+1)
	next := now() + discardNs
	for {
		_, end, err := s.c.readFrame()
		if err != nil {
			s.link.close() // unblocks a producer stuck in Write
			return nil, errors.Join(err, <-errc)
		}
		if end {
			break
		}
		if t := now(); t >= next && !stop.Load() {
			cuts = append(cuts, s.takeCut(t))
			// A consumer held up for longer than a window makes one long
			// window of it, not a run of empty ones.
			next = t + windowNs
			if len(cuts) == windows+1 {
				stop.Store(true)
			}
		}
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	ws := make([]window, windows)
	for i := range ws {
		a, b := cuts[i], cuts[i+1]
		ws[i] = window{
			ns: b.t - a.t, written: b.written - a.written, read: b.read - a.read,
			cpuNs: b.cpuNs - a.cpuNs, userNs: b.userNs - a.userNs, mallocs: b.mallocs - a.mallocs,
		}
	}
	return ws, nil
}

// lockstepResult is a lockstep phase: one sample per frame.
type lockstepResult struct {
	deliveryNs []int64 // sorted: first Write → last record verified
	hopNs      []int64 // sorted; traced relay runs only
	// bestP25Ns is the lowest of the slices' lower quartiles of deliveryNs:
	// the least disturbed slice, as for stream windows.
	bestP25Ns float64
}

// lockstepSlices runs n lockstep slices of sliceNs each and pools them.
func (s *session) lockstepSlices(n int, sliceNs int64) (lockstepResult, []float64, error) {
	res := lockstepResult{bestP25Ns: math.Inf(1)}
	p25s := make([]float64, n)
	for i := range p25s {
		ls, err := s.lockstep(sliceNs)
		if err != nil {
			return res, nil, err
		}
		p25s[i] = percentile(ls.deliveryNs, 0.25)
		res.bestP25Ns = min(res.bestP25Ns, p25s[i])
		res.deliveryNs = append(res.deliveryNs, ls.deliveryNs...)
		res.hopNs = append(res.hopNs, ls.hopNs...)
	}
	slices.Sort(res.deliveryNs)
	slices.Sort(res.hopNs)
	return res, p25s, nil
}

// lockstep runs the closed loop with exactly one frame in flight: the
// producer writes a frame, the consumer says over a channel when it holds
// the frame's last verified record, and only then does the next frame go.
func (s *session) lockstep(durNs int64) (lockstepResult, error) {
	var res lockstepResult
	// One frame is in flight, so at most one completion time is pending.
	done := make(chan int64, 1)
	errc := make(chan error, 1)
	go func() {
		deadline := now() + durNs
		for t0 := now(); t0 < deadline; t0 = now() {
			if err := s.p.writeFrame(); err != nil {
				errc <- err
				return
			}
			res.deliveryNs = append(res.deliveryNs, <-done-t0)
		}
		errc <- s.p.writeSentinel()
	}()
	hop := s.link.relayProd
	for {
		_, end, err := s.c.readFrame()
		if err != nil {
			s.link.close()
			close(done) // releases a producer waiting for this frame
			return res, errors.Join(err, <-errc)
		}
		if end {
			break
		}
		t := now()
		if hop != nil {
			res.hopNs = append(res.hopNs, s.c.rconn.lastEnd.Load()-hop.lastEnd.Load())
		}
		done <- t
	}
	if err := <-errc; err != nil {
		return res, err
	}
	slices.Sort(res.deliveryNs)
	slices.Sort(res.hopNs)
	if len(res.deliveryNs) == 0 {
		return res, fmt.Errorf("%s: lockstep slice of %d ms completed no frame", s.fx.w.name, durNs/1e6)
	}
	return res, nil
}

// finish closes the session and reconciles the books: every record the
// producer wrote must have been verified by the consumer, and on a relay
// session the relay's own counts must agree with both.
func (s *session) finish() (attempted, failed int64, books *relayBooks, firstErr string) {
	attempted = s.p.seq
	failed = s.c.failed + (s.p.seq - s.c.seq)
	firstErr = s.c.firstErr
	if s.c.seq != s.p.seq && firstErr == "" {
		firstErr = fmt.Sprintf("producer wrote %d records, consumer verified %d", s.p.seq, s.c.seq)
	}
	if s.link.srv != nil {
		st := s.link.srv.Stats()
		books = &relayBooks{
			framesIn:  st.Frames,
			framesOut: st.Frames - st.QueueDroppedFrames,
			dropped:   st.QueueDroppedFrames + st.DroppedConsumers + st.Disconnects + st.BadProducers,
		}
		for _, f := range s.link.srv.MeshSnapshot().Formats {
			books.records += f.Records
		}
		// The relay also carried one sentinel per finished phase.
		if carried := books.records - s.p.sentinels; carried != s.p.seq || books.dropped != 0 {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("relay books: carried %d records and dropped %d, producer wrote %d", carried, books.dropped, s.p.seq)
			}
		}
	}
	s.link.close()
	return attempted, failed, books, firstErr
}

// relayBooks are relay.Server's own counts after a run.
type relayBooks struct {
	framesIn, framesOut, dropped, records int64
}

// wireBytes runs the workload's producer code for n records into a
// counting writer and returns the bytes written, meta frames included.
func wireBytes(fx *fixtures, n int) (int64, error) {
	var cw countingWriter
	p, err := newProducer(fx, &cw)
	if err != nil {
		return 0, err
	}
	for p.seq < int64(n) {
		if err := p.writeFrame(); err != nil {
			return 0, err
		}
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// percentile returns the q-quantile of sorted samples, stepping down to
// the highest rank that still has ten samples beyond it.
func percentile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q * float64(n))
	if hi := n - 11; i > hi {
		i = max(hi, n/2)
	}
	return float64(sorted[i])
}
