package mesh

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/leakcheck"
	"repro/internal/meshmon"
	"repro/internal/relay"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/pbio"
)

// countRecords reads frames off a consumer connection and counts data
// records until want records arrive or the deadline passes.  It counts
// at the frame layer (meta frames teach it each format's record size)
// so ten thousand concurrent consumers cost a small buffered reader
// each, not a full decode context.
func countRecords(conn net.Conn, want int, deadline time.Time) (int, error) {
	fr := transport.NewFrameReader(bufio.NewReaderSize(conn, 512))
	defer fr.Release()
	sizes := make(map[uint32]int)
	n := 0
	for n < want {
		conn.SetReadDeadline(deadline)
		f, err := fr.Next()
		if err != nil {
			return n, err
		}
		body, err := f.Body()
		if err != nil {
			return n, err
		}
		switch f.BaseKind() {
		case transport.FrameMeta:
			format, _, err := wire.DecodeMeta(body)
			if err != nil {
				return n, err
			}
			sizes[f.FormatID] = format.Size
		case transport.FrameData:
			n++
		case transport.FrameBatch:
			sz := sizes[f.FormatID]
			if sz == 0 {
				return n, fmt.Errorf("batch for unknown format %d", f.FormatID)
			}
			n += len(body) / sz
		}
	}
	return n, nil
}

// soakSnapshot scrapes one hop's registry over real HTTP and appends the
// rest of the mesh's exports, writing the whole thing to $SOAK_SNAPSHOT
// when set (the CI artifact).  It returns the scraped hop's page.
func soakSnapshot(t *testing.T, m *Tree, scrape *Hop) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		scrape.Registry.WritePrometheus(w)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}

	var snap bytes.Buffer
	for _, h := range m.Hops() {
		fmt.Fprintf(&snap, "# ---- %s ----\n", h.ID)
		if h == scrape {
			snap.Write(page)
		} else {
			h.Registry.WritePrometheus(&snap)
		}
	}
	if path := os.Getenv("SOAK_SNAPSHOT"); path != "" {
		if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
			t.Errorf("SOAK_SNAPSHOT: %v", err)
		}
	}
	return string(page)
}

// TestMeshSoakBlockingZeroLoss is the headline proof: a 3-level relay
// tree fanning out to 10k+ concurrent consumers (1k in -short) under
// the blocking queue policy, every consumer receiving every record.
func TestMeshSoakBlockingZeroLoss(t *testing.T) {
	leakcheck.Check(t)
	shape, consumers, records := []int{1, 4, 16}, 10000, 20
	if testing.Short() {
		shape, consumers, records = []int{1, 2, 4}, 1000, 10
	}
	m, err := New(Config{Shape: shape, QueueCap: 64, Policy: relay.PolicyBlock, Observe: true, FlightCap: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	dumpFlightOnFailure(t, m)

	deadline := time.Now().Add(3 * time.Minute)
	leaves := m.Leaves()
	counts := make([]int, consumers)
	errs := make([]error, consumers)
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		conn := m.AttachConsumer(leaves[i%len(leaves)])
		if conn == nil {
			t.Fatalf("consumer %d refused", i)
		}
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			counts[i], errs[i] = countRecords(conn, records, deadline)
		}(i, conn)
	}

	pc := m.AttachProducer(m.Root())
	pctx, err := pbio.NewContext(pbio.WithArch("x86-64"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := pctx.Register("tick", pbio.F("seq", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	w := pctx.NewWriter(pc)
	for i := 0; i < records; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}

	// Scrape mid-flight, while queues can plausibly be non-empty: the
	// per-hop queue-depth gauges must be exported either way.
	page := soakSnapshot(t, m, m.Root())
	for _, name := range []string{
		"pbio_relay_queue_depth_frames",
		"pbio_relay_queue_depth_max_frames",
		"pbio_relay_queue_dropped_records_total",
		"pbio_relay_consumers",
	} {
		if !strings.Contains(page, name) {
			t.Errorf("scraped /metrics lacks %s", name)
		}
	}

	wg.Wait()
	pc.Close()
	lost := 0
	for i, n := range counts {
		if n != records {
			lost++
			if lost <= 5 {
				t.Errorf("consumer %d: %d/%d records (err: %v)", i, n, records, errs[i])
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d consumers lost records under blocking policy", lost, consumers)
	}
	// Zero loss also means zero policy evictions anywhere in the tree.
	for _, h := range m.Hops() {
		if st := h.Relay.Stats(); st.QueueDroppedFrames != 0 || st.DroppedConsumers != 0 {
			t.Errorf("%s: dropped %d frames, %d consumers under blocking policy",
				h.ID, st.QueueDroppedFrames, st.DroppedConsumers)
		}
	}

	// The acceptance crawl: a monitor pointed at one LEAF of the soak
	// tree must rediscover every hop, and the crawled per-format books
	// must reconcile — each hop ingested every produced record exactly
	// once, nothing dropped, nothing still queued.
	hops := m.Hops()
	client := crawlClient(t)
	leaf := m.Leaves()[0]
	topo := waitCrawl(t, client, leaf.MeshAddr, "crawled per-format accounting to settle",
		func(topo *meshmon.Topology) bool {
			if len(topo.Nodes) != len(hops) {
				return false
			}
			for _, h := range hops {
				n := topo.Nodes[h.MeshAddr]
				if n == nil || n.Err != "" || findFormat(n, "tick").Records != int64(records) {
					return false
				}
			}
			return true
		})
	if len(topo.Roots) != 1 || topo.Roots[0] != m.Root().MeshAddr {
		t.Errorf("crawl from %s: roots = %v, want [%s]", leaf.ID, topo.Roots, m.Root().MeshAddr)
	}
	for _, h := range hops {
		tick := findFormat(topo.Nodes[h.MeshAddr], "tick")
		if tick.DroppedFrames != 0 || tick.DroppedRecords != 0 || tick.Queued != 0 {
			t.Errorf("%s: crawled tick accounting %+v; want zero drops and an empty queue", h.ID, tick)
		}
	}
	// Aggregation counts a record once per hop it crossed.
	totals := topo.FormatTotals()
	if len(totals) != 1 || totals[0].Name != "tick" || totals[0].Records != int64(records*len(hops)) {
		t.Errorf("format totals = %+v, want tick with %d records across %d hops", totals, records*len(hops), len(hops))
	}

	// Flight-journal conservation: zero loss means zero eviction and
	// zero policy-disconnect events anywhere, and every consumer
	// registration — harness consumers at the leaves plus one child
	// uplink per non-root hop — left exactly one ConsumerJoin event.
	var joins int64
	for _, h := range m.Hops() {
		if h.Flight.Dropped() != 0 {
			t.Errorf("%s: flight ring overwrote %d events; conservation checks need a larger FlightCap", h.ID, h.Flight.Dropped())
		}
		events := journalEvents(t, h)
		if n, _, _ := countKind(events, flightrec.KindQueueEvict); n != 0 {
			t.Errorf("%s: %d QueueEvict events under blocking policy", h.ID, n)
		}
		if n, _, _ := countKind(events, flightrec.KindPolicyDisconnect); n != 0 {
			t.Errorf("%s: %d PolicyDisconnect events under blocking policy", h.ID, n)
		}
		n, _, _ := countKind(events, flightrec.KindConsumerJoin)
		joins += n
	}
	if want := int64(consumers + len(hops) - 1); joins != want {
		t.Errorf("journals record %d ConsumerJoin events across the tree, want %d (%d consumers + %d uplinks)",
			joins, want, consumers, len(hops)-1)
	}

	// The acceptance decode: the root's journal, fetched over live HTTP
	// exactly as an operator would, must decode with the UNMODIFIED
	// generic pbio read path — no flightrec import below this line.
	resp, err := client.Get("http://" + m.Root().MeshAddr + "/debug/flight")
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	defer resp.Body.Close()
	cctx, err := pbio.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	r := cctx.NewReader(resp.Body)
	decoded := 0
	for {
		msg, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("pbio.Read on journal record %d: %v", decoded, err)
		}
		if msg.FormatName() != "pbio.flight.v1" {
			t.Fatalf("journal carries format %q", msg.FormatName())
		}
		specs := make([]pbio.FieldSpec, 0, len(msg.Fields()))
		for _, fi := range msg.Fields() {
			specs = append(specs, fi.Spec())
		}
		jf, err := cctx.Register(msg.FormatName(), specs...)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := msg.Decode(jf)
		if err != nil {
			t.Fatal(err)
		}
		if node, _ := rec.String("node"); node != m.Root().ID {
			t.Fatalf("journal record %d names node %q, want %q", decoded, node, m.Root().ID)
		}
		decoded++
	}
	if decoded == 0 {
		t.Error("root journal decoded to zero records via plain pbio.Read")
	}
}

// TestMeshDropOldestExactAccounting floods a drop-oldest relay through a
// deliberately slow consumer and proves the books balance exactly:
// records received + records evicted == records produced, the received
// sequence stays strictly increasing (drop-oldest never reorders and
// never drops newer before older), and the tracer's lost-span count
// equals the evicted traced-record count.
func TestMeshDropOldestExactAccounting(t *testing.T) {
	leakcheck.Check(t)
	total := 2000
	if testing.Short() {
		total = 400
	}
	m, err := New(Config{Shape: []int{1}, QueueCap: 8, Policy: relay.PolicyDropOldest, TraceRate: 1, Observe: true, FlightCap: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	dumpFlightOnFailure(t, m)
	hop := m.Root()

	conn := m.AttachConsumer(hop)
	if conn == nil {
		t.Fatal("consumer refused")
	}
	defer conn.Close()

	// Traced producer: every record carries wire trace context, so every
	// eviction must surface in the hop tracer's lost count.
	pc := m.AttachProducer(hop)
	pctx, err := pbio.NewContext(pbio.WithArch("x86-64"),
		pbio.WithTracer(tracectx.New("producer", 1, total+1)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := pctx.Register("tick", pbio.F("seq", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}

	var seqs []int64
	done := make(chan error, 1)
	go func() {
		cctx, err := pbio.NewContext(pbio.WithArch("x86-64"))
		if err != nil {
			done <- err
			return
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		r := cctx.NewReader(conn)
		cf, err := cctx.Register("tick", pbio.F("seq", pbio.Int))
		if err != nil {
			done <- err
			return
		}
		for {
			msg, err := r.Read()
			if err != nil {
				done <- fmt.Errorf("after %d records: %w", len(seqs), err)
				return
			}
			rec, err := msg.Decode(cf)
			if err != nil {
				done <- err
				return
			}
			seq, _ := rec.Int("seq", 0)
			seqs = append(seqs, seq)
			if seq == int64(total-1) {
				// The final record is always the newest queued frame, so
				// drop-oldest can never evict it: a reliable sentinel.
				done <- nil
				return
			}
			if len(seqs) < 50 {
				// Stay slow while the producer floods, forcing overflow.
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	w := pctx.NewWriter(pc)
	for i := 0; i < total; i++ {
		rec := f.NewRecord()
		rec.MustSetInt("seq", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := hop.Relay.Stats()
	if st.QueueDroppedFrames == 0 {
		t.Error("flood through an 8-frame queue evicted nothing; test exerted no pressure")
	}
	if got := int64(len(seqs)) + st.QueueDroppedRecords; got != int64(total) {
		t.Errorf("received %d + dropped %d = %d records, produced %d",
			len(seqs), st.QueueDroppedRecords, got, total)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sequence regressed: seqs[%d]=%d after %d", i, seqs[i], seqs[i-1])
		}
	}
	if lost := hop.Tracer.Lost(); lost != st.QueueDroppedRecords {
		t.Errorf("tracer counted %d lost spans, relay evicted %d traced records", lost, st.QueueDroppedRecords)
	}
	if st.DroppedConsumers != 0 {
		t.Errorf("drop-oldest evicted %d consumers; policy must keep them connected", st.DroppedConsumers)
	}

	// The same books, read the way an operator would: crawl the hop's
	// /debug/mesh and reconcile the per-format row against the tracer.
	// (The final forward is counted just after the frame is queued, so
	// the scrape may trail the sentinel read by an instant — poll.)
	topo := waitCrawl(t, crawlClient(t), hop.MeshAddr, "crawled tick accounting to settle",
		func(topo *meshmon.Topology) bool {
			n := topo.Nodes[hop.MeshAddr]
			return n != nil && n.Err == "" && findFormat(n, "tick").Records == int64(total)
		})
	tick := findFormat(topo.Nodes[hop.MeshAddr], "tick")
	if got := int64(len(seqs)) + tick.DroppedRecords; got != int64(total) {
		t.Errorf("crawled books: received %d + dropped %d = %d records, produced %d",
			len(seqs), tick.DroppedRecords, got, total)
	}
	if tick.DroppedRecords != hop.Tracer.Lost() {
		t.Errorf("crawled tick drops %d, tracer lost %d spans", tick.DroppedRecords, hop.Tracer.Lost())
	}
	if tick.Queued != 0 {
		t.Errorf("crawled tick queue occupancy %d after drain, want 0", tick.Queued)
	}

	// Event conservation: the flight journal is a third, independent set
	// of books, and all three must agree exactly — one QueueEvict event
	// per evicted frame, arg1 summing to the evicted record count the
	// crawler reports, arg2 summing to the tracer's lost spans.
	if d := hop.Flight.Dropped(); d != 0 {
		t.Fatalf("flight ring overwrote %d events; conservation checks need a larger FlightCap", d)
	}
	events := journalEvents(t, hop)
	evictN, evictRecs, evictTraced := countKind(events, flightrec.KindQueueEvict)
	if evictN != st.QueueDroppedFrames {
		t.Errorf("journal has %d QueueEvict events, relay evicted %d frames", evictN, st.QueueDroppedFrames)
	}
	if evictRecs != tick.DroppedRecords {
		t.Errorf("journal QueueEvict events sum to %d records, crawler reports %d dropped", evictRecs, tick.DroppedRecords)
	}
	if evictTraced != hop.Tracer.Lost() {
		t.Errorf("journal QueueEvict events sum to %d traced records, tracer lost %d spans", evictTraced, hop.Tracer.Lost())
	}
	if n, _, _ := countKind(events, flightrec.KindPolicyDisconnect); n != 0 {
		t.Errorf("journal has %d PolicyDisconnect events; drop-oldest must keep consumers", n)
	}
}

// TestMeshSubscriptionRouting: a consumer below one branch subscribes to
// a single format name, the union propagates upstream, and the root then
// forwards that branch only the subscribed format (meta still goes to
// everyone).
func TestMeshSubscriptionRouting(t *testing.T) {
	leakcheck.Check(t)
	m, err := New(Config{Shape: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	root, left, right := m.Root(), m.Levels[1][0], m.Levels[1][1]

	// One consumer under the left branch wants only "alpha"; the right
	// branch keeps a default (all) consumer.
	lconn := m.AttachConsumer(left)
	rconn := m.AttachConsumer(right)
	if lconn == nil || rconn == nil {
		t.Fatal("consumer refused")
	}
	defer lconn.Close()
	defer rconn.Close()
	if err := transport.NewFrameWriter(lconn).WriteSubscription(transport.Subscription{Names: []string{"alpha"}}); err != nil {
		t.Fatal(err)
	}

	// The want-list must reach the left hop, then narrow the left
	// branch's uplink at the root.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("left hop to apply the subscription", func() bool { return left.Relay.SubscribedConsumers() == 1 })
	waitFor("root to see the narrowed uplink", func() bool { return root.Relay.SubscribedConsumers() == 1 })

	pc := m.AttachProducer(root)
	pctx, err := pbio.NewContext(pbio.WithArch("x86-64"))
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pctx.Register("alpha", pbio.F("seq", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	fb, err := pctx.Register("beta", pbio.F("seq", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	w := pctx.NewWriter(pc)
	for i := 0; i < 3; i++ {
		rb := fb.NewRecord()
		rb.MustSetInt("seq", 0, int64(i))
		if err := w.Write(rb); err != nil {
			t.Fatal(err)
		}
	}
	ra := fa.NewRecord()
	ra.MustSetInt("seq", 0, 99)
	if err := w.Write(ra); err != nil {
		t.Fatal(err)
	}

	// The left consumer's next record must be alpha/99 — the three beta
	// records published first must never cross its link.
	cctx, err := pbio.NewContext(pbio.WithArch("x86-64"))
	if err != nil {
		t.Fatal(err)
	}
	lconn.SetReadDeadline(time.Now().Add(30 * time.Second))
	msg, err := cctx.NewReader(lconn).Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.FormatName() != "alpha" {
		t.Fatalf("subscribed consumer received %q", msg.FormatName())
	}

	// The all-subscribed right branch sees all four records.
	if n, err := countRecords(rconn, 4, time.Now().Add(30*time.Second)); err != nil || n != 4 {
		t.Fatalf("all-consumer got %d records, err %v", n, err)
	}
}
