package flightrec

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/abi"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WriteTo streams the ring's current contents as a PBIO stream: the
// journal format's self-describing meta-information first, then one
// data frame per event, oldest first.  The ring lock is released before
// any I/O happens, so a slow reader never blocks emission.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	recs, _ := r.snapshot()
	cw := &countingWriter{w: w}
	tw := transport.NewWriter(cw)
	for off := 0; off < len(recs); off += recSize {
		if err := tw.WriteRecord(journalFormat, recs[off:off+recSize]); err != nil {
			return cw.n, err
		}
	}
	if len(recs) == 0 {
		// An empty journal still dumps as a decodable stream: meta only.
		if err := tw.WriteMeta(journalFormat); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Handler serves the journal over HTTP as application/octet-stream —
// the /debug/flight endpoint.  Each GET is an independent snapshot.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "flight recorder disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		r.WriteTo(w)
	})
}

// DumpFile writes the journal snapshot to path (0644, truncating).
// This is the SIGQUIT handler's exit: a post-mortem readable with
// pbio-dump.
func (r *Recorder) DumpFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := r.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DumpOnSignal installs a SIGQUIT handler that writes the journal
// snapshot to path on every delivery — the classic flight-recorder
// gesture: kill -QUIT a wedged daemon, read the journal post mortem.
// Note that catching SIGQUIT replaces the Go runtime's default
// stack-dump-and-exit behavior; the daemon keeps running.  The returned
// stop function uninstalls the handler.  Nil-safe (a no-op stop).
func (r *Recorder) DumpOnSignal(path string) (stop func()) {
	if r == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ch:
				if err := r.DumpFile(path); err != nil {
					fmt.Fprintf(os.Stderr, "flightrec: dump %s: %v\n", path, err)
				} else {
					fmt.Fprintf(os.Stderr, "flightrec: journal dumped to %s (%d events, %d overwritten)\n",
						path, r.Len(), r.Dropped())
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch)
			done <- struct{}{}
			<-done
		})
	}
}

// Drainer appends newly emitted events to a writer in the background —
// the append-only journal mode.  Unlike WriteTo (a snapshot), a Drainer
// follows the ring: each pass writes only the events emitted since the
// previous pass, over a single transport writer, so meta-information
// goes out once and the output grows as one continuous PBIO stream.
type Drainer struct {
	r    *Recorder
	tw   *transport.Writer
	next uint64 // sequence number of the next event to write
	lost uint64 // events overwritten before a pass reached them
	err  error
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// DrainTo starts a goroutine that drains new events to w every
// interval.  Stop it with Stop, which runs one final pass before
// returning.  Returns nil on a nil recorder.
func (r *Recorder) DrainTo(w io.Writer, every time.Duration) *Drainer {
	if r == nil {
		return nil
	}
	if every <= 0 {
		every = time.Second
	}
	d := &Drainer{
		r:    r,
		tw:   transport.NewWriter(w),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if d.pass() != nil {
					return
				}
			case <-d.stop:
				d.pass()
				return
			}
		}
	}()
	return d
}

// pass drains everything emitted since the last pass.  Events the ring
// overwrote before this pass reached them are counted in lost.
func (d *Drainer) pass() error {
	recs, first := d.r.snapshot()
	if first > d.next {
		d.lost += first - d.next
		d.next = first
	}
	skip := int(d.next-first) * recSize
	for off := skip; off < len(recs); off += recSize {
		if err := d.tw.WriteRecord(journalFormat, recs[off:off+recSize]); err != nil {
			d.err = err
			return err
		}
		d.next++
	}
	return nil
}

// Stop halts the drain goroutine after one final pass and reports how
// many events were emitted too fast to drain, plus any write error.
// Safe to call more than once, and on a nil Drainer.
func (d *Drainer) Stop() (lost uint64, err error) {
	if d == nil {
		return 0, nil
	}
	d.once.Do(func() { close(d.stop) })
	<-d.done
	return d.lost, d.err
}

// Event is one decoded journal record.
type Event struct {
	TS      int64 // UnixNano
	Node    string
	Kind    Kind
	Subject string
	Trace   uint64
	Arg1    int64
	Arg2    int64
}

// String renders the event for logs and the pbio-mon -flight table.
func (e Event) String() string {
	return fmt.Sprintf("%s %s %s subject=%q trace=%#x arg1=%d arg2=%d",
		time.Unix(0, e.TS).UTC().Format("15:04:05.000000"), e.Node, e.Kind, e.Subject, e.Trace, e.Arg1, e.Arg2)
}

// maxJournalEvents bounds how many events ReadJournal will decode from
// one stream, so a corrupt or hostile dump cannot balloon memory.
const maxJournalEvents = 1 << 20

// ReadJournal decodes a journal stream produced by WriteTo, a Drainer,
// or /debug/flight.  It reads until EOF and returns the events it
// decoded; a truncated or corrupt tail returns the events read so far
// alongside the error.  Records of formats other than the journal's are
// skipped, so a journal multiplexed into a wider stream still reads.
//
// The stream's own meta-information drives the decode: field offsets,
// sizes and byte order come from the wire, not from this build's
// layout, so journals from other architectures or evolved schemas read
// correctly as long as the field names survive.
func ReadJournal(rd io.Reader) ([]Event, error) {
	tr := transport.NewReader(rd)
	defer tr.Close()
	var (
		events []Event
		m      transport.Message
		dec    *journalDecoder
		decFmt *wire.Format
	)
	for {
		if err := tr.ReadMessageInto(&m); err != nil {
			if err == io.EOF {
				return events, nil
			}
			return events, err
		}
		if m.Format == nil || m.Format.Name != FormatName {
			continue
		}
		if dec == nil || decFmt != m.Format {
			var err error
			dec, err = newJournalDecoder(m.Format)
			if err != nil {
				return events, err
			}
			decFmt = m.Format
		}
		ev, err := dec.decode(m.Data)
		if err != nil {
			return events, err
		}
		events = append(events, ev)
		if len(events) > maxJournalEvents {
			return events, fmt.Errorf("flightrec: journal exceeds %d events", maxJournalEvents)
		}
	}
}

// journalDecoder holds the journal fields of one wire format as
// wire.Cursors, resolved by name once (DESIGN "Field access") so
// per-record decoding is a few loads.  A missing field is the zero
// Cursor, which loads as zero — a v2 journal read by this build, or
// vice versa, degrades instead of failing.
type journalDecoder struct {
	size                        int
	ts, trace, arg1, arg2, kind wire.Cursor // scalar integers
	node, subject               wire.Cursor // char arrays
}

func newJournalDecoder(f *wire.Format) (*journalDecoder, error) {
	if f.Order != abi.BigEndian && f.Order != abi.LittleEndian {
		return nil, fmt.Errorf("flightrec: journal format has invalid byte order")
	}
	return &journalDecoder{
		size:    f.Size,
		ts:      journalField(f, "ts_nanos", false),
		trace:   journalField(f, "trace", false),
		arg1:    journalField(f, "arg1", false),
		arg2:    journalField(f, "arg2", false),
		kind:    journalField(f, "kind", false),
		node:    journalField(f, "node", true),
		subject: journalField(f, "subject", true),
	}, nil
}

// journalField resolves name as a char array (chars) or a scalar
// integer lying inside the record.  Anything else — no such field,
// wrong type, array, out of bounds — is the zero Cursor: absent rather
// than an error, keeping the reader robust to corrupt or evolved meta.
// (An integer of odd width needs no check here: it loads as zero.)
func journalField(f *wire.Format, name string, chars bool) wire.Cursor {
	c := f.Cursor(name)
	if c == nil || !c.Fits {
		return wire.Cursor{}
	}
	ok := c.Kind == wire.KindChar && c.Size == 1 && c.Count >= 1
	if !chars {
		ok = (c.Kind == wire.KindSigned || c.Kind == wire.KindUnsigned) && c.Count == 1
	}
	if !ok {
		return wire.Cursor{}
	}
	return *c
}

func (d *journalDecoder) decode(b []byte) (Event, error) {
	if len(b) < d.size {
		return Event{}, fmt.Errorf("flightrec: journal record %d bytes, format says %d", len(b), d.size)
	}
	return Event{
		TS:      int64(d.ts.Uint(b, 0)),
		Node:    d.node.CString(b),
		Kind:    Kind(int32(d.kind.Int(b, 0))),
		Subject: d.subject.CString(b),
		Trace:   d.trace.Uint(b, 0),
		Arg1:    d.arg1.Int(b, 0),
		Arg2:    d.arg2.Int(b, 0),
	}, nil
}

// ExportMetrics publishes the recorder's own accounting on a registry:
// how many events were ever emitted and how many the ring overwrote.
func (r *Recorder) ExportMetrics(reg *telemetry.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("pbio_flight_events_total",
		"Events emitted into the flight recorder ring.",
		func() int64 { return int64(r.Seq()) })
	reg.CounterFunc("pbio_flight_dropped_total",
		"Flight recorder events overwritten before they could be dumped.",
		func() int64 { return int64(r.Dropped()) })
}
