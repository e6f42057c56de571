// Command pbio-relay runs a PBIO stream broker: producers connect to one
// port and publish record streams; consumers connect to another and
// receive everything, with format meta-information replayed to late
// joiners.
//
// Because PBIO records travel in the sender's native layout with
// self-describing meta-information, the relay forwards frames verbatim —
// no decode, no re-encode, no per-record CPU cost proportional to record
// complexity — which is the NDR property that makes cheap interposition
// (monitors, loggers, brokers) possible.  With -rebatch the relay
// additionally coalesces consecutive same-format records into batch
// frames (amortizing headers and consumer syscalls) without ever
// decoding them — records are held only while more input is already
// buffered, so coalescing adds no latency.
//
// Relays chain into fan-out trees: with -uplink the relay attaches below
// another relay's consumer port, subscribing to the live union of what
// its own consumers want (or a fixed -subscribe list) and ingesting the
// upstream stream as if it were a local producer.  Each consumer gets a
// bounded queue (-queue) whose overflow behavior is -queue-policy:
// disconnect the slow consumer (default, the historical behavior),
// drop-oldest (keep the consumer, evict and count the oldest data), or
// block (lossless; the slowest consumer paces the stream).
//
// Usage:
//
//	pbio-relay -producers 127.0.0.1:7850 -consumers 127.0.0.1:7851 \
//	    -timeout 30s -checksum-meta -stats 10s -metrics-addr 127.0.0.1:9850
//
//	pbio-relay -consumers 127.0.0.1:7861 -uplink 127.0.0.1:7851 \
//	    -subscribe temps,events -queue 512 -queue-policy drop-oldest
//
// With -metrics-addr the relay serves its observability surface over
// HTTP: /metrics (Prometheus text exposition of frame, byte and
// checksum-failure counters plus queue-depth and drop gauges and the
// pbio_go_* runtime families), /debug/pprof/ (net/http/pprof
// profiling), /debug/mesh (the hop's mesh-topology
// document — what pbio-mon crawls), /debug/flight (the flight-recorder
// journal as a PBIO stream; see also SIGQUIT and -flight-dump),
// /healthz (liveness) and /readyz (readiness: 503 until a configured
// -uplink is attached).  -node-id names the hop; the identity rides the
// uplink subscription handshake so neighbors — and crawlers — can map
// the tree.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/flightrec"
	"repro/internal/relay"
	"repro/internal/telemetry"
	"repro/internal/telemetry/runtimebridge"
	"repro/internal/telemetry/tracectx"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pbio-relay: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	prod := flag.String("producers", "127.0.0.1:7850", "address producers connect to")
	cons := flag.String("consumers", "127.0.0.1:7851", "address consumers connect to")
	timeout := flag.Duration("timeout", 0, "per-frame producer read / consumer write bound (0 = none)")
	sums := flag.Bool("checksum-meta", false, "checksum relay-originated frames (meta and re-batched data)")
	rebatch := flag.Int("rebatch", 0, "coalesce consecutive same-format records into batch frames of up to this many payload bytes (0 = forward verbatim)")
	statsEvery := flag.Duration("stats", 0, "print relay stats at this interval (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/mesh, /debug/flight and /debug/pprof on this address (empty = disabled)")
	traceRate := flag.Float64("trace-rate", 0, "participate in cross-hop traces: record a relay span for every forwarded frame carrying wire trace context (any rate > 0 enables; spans served at /debug/trace.json on -metrics-addr)")
	uplink := flag.String("uplink", "", "attach below an upstream relay: its consumer address to dial (empty = this relay is a root)")
	subscribe := flag.String("subscribe", "", "comma-separated format names to subscribe the -uplink to (empty = auto: the live union of what this relay's own consumers want)")
	queue := flag.Int("queue", 0, "per-consumer queue capacity in frames (0 = default 256)")
	queuePolicy := flag.String("queue-policy", "disconnect", "full-queue policy: disconnect, drop-oldest or block")
	nodeID := flag.String("node-id", "", "mesh node identity announced to uplink/downstream relays and served at /debug/mesh (empty = anonymous)")
	stallWindow := flag.Duration("stall-window", 10*time.Second, "flag a consumer as stalled when its non-empty queue has not drained for this long (0 = disable)")
	flightCap := flag.Int("flight", 4096, "flight recorder ring capacity in events (0 = disabled)")
	flightDump := flag.String("flight-dump", "", "write the flight journal here on SIGQUIT (default <node-id or pbio-relay>.flight.pbio)")
	flag.Parse()

	policy, err := relay.ParseQueuePolicy(*queuePolicy)
	if err != nil {
		return err
	}
	var static *transport.Subscription
	if *subscribe != "" {
		if *uplink == "" {
			return fmt.Errorf("-subscribe requires -uplink")
		}
		names := strings.Split(*subscribe, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if names[i] == "" {
				return fmt.Errorf("-subscribe has an empty format name")
			}
		}
		static = &transport.Subscription{Names: names}
	}

	pln, err := net.Listen("tcp", *prod)
	if err != nil {
		return err
	}
	cln, err := net.Listen("tcp", *cons)
	if err != nil {
		return err
	}
	s := relay.NewServer()
	s.SetTimeouts(*timeout, *timeout)
	s.SetChecksums(*sums)
	s.SetRebatching(*rebatch)
	s.SetQueue(*queue, policy)
	s.SetStallWindow(*stallWindow)
	var tracer *tracectx.Tracer
	if *traceRate > 0 {
		// The relay never samples — it records spans for whatever trace
		// context producers put on the wire — so the rate only gates
		// whether tracing is on at all.
		tracer = tracectx.New("pbio-relay", *traceRate, 0)
		s.SetTracing(tracer)
	}
	node := *nodeID
	if node == "" {
		node = "pbio-relay"
	}
	var rec *flightrec.Recorder
	if *flightCap > 0 {
		rec = flightrec.New(node, *flightCap)
		s.SetFlight(rec)
		dump := *flightDump
		if dump == "" {
			dump = node + ".flight.pbio"
		}
		rec.DumpOnSignal(dump)
	}
	meshAddr := ""
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		s.SetTelemetry(reg)
		tracer.ExportMetrics(reg)
		bridge := runtimebridge.Start(reg, 0)
		s.SetRuntimeProbe(func() relay.MeshRuntimeInfo {
			p := bridge.Snapshot()
			return relay.MeshRuntimeInfo{
				Goroutines:      p.Goroutines,
				HeapBytes:       p.HeapBytes,
				GCCycles:        p.GCCycles,
				GCPauseP99:      p.GCPauseP99,
				SchedLatencyP99: p.SchedLatencyP99,
			}
		})
		if rec != nil {
			rec.ExportMetrics(reg)
			reg.Handle("/debug/flight", rec.Handler())
		}
		reg.Handle("/healthz", telemetry.LiveHandler())
		// Ready means safe to attach consumers: a relay configured to
		// feed from an uplink serves nothing useful until it's attached.
		reg.Handle("/readyz", telemetry.ReadyHandler(func() error {
			if *uplink != "" && s.Uplinks() == 0 {
				return fmt.Errorf("uplink %s not attached", *uplink)
			}
			return nil
		}))
		mln, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		meshAddr = mln.Addr().String()
		fmt.Printf("pbio-relay: metrics on %s\n", mln.Addr())
	}
	if *nodeID != "" || meshAddr != "" {
		// Before the uplink dials: the first subscription handshake must
		// already carry the identity.
		s.SetNodeInfo(*nodeID, meshAddr)
	}
	if *uplink != "" {
		go runUplink(s, rec, *uplink, static)
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := s.Stats()
				log.Printf("pbio-relay: %d frames, %d bytes forwarded, %d formats; "+
					"%d bad producers, %d resyncs, %d checksum failures, "+
					"%d dropped consumers, %d disconnects, %d queue-dropped frames, %d meta replays",
					st.Frames, st.ForwardedBytes, s.Formats(),
					st.BadProducers, st.Resyncs, st.ChecksumFailures,
					st.DroppedConsumers, st.Disconnects, st.QueueDroppedFrames, st.MetaReplays)
				if st.LastProducerError != "" {
					log.Printf("pbio-relay: last producer error: %s", st.LastProducerError)
				}
			}
		}()
	}
	fmt.Printf("pbio-relay: producers on %s, consumers on %s\n", pln.Addr(), cln.Addr())
	return s.Serve(pln, cln)
}

// runUplink keeps the relay attached below its upstream, redialing with
// backoff whenever the link drops.  The subscription (static want-list
// or live downstream union) is re-sent on every new connection.
func runUplink(s *relay.Server, rec *flightrec.Recorder, addr string, static *transport.Subscription) {
	for backoff := time.Second; ; {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			log.Printf("pbio-relay: uplink dial %s: %v (retrying in %v)", addr, err, backoff)
			rec.Emit(flightrec.KindUplinkRedial, addr, 0, backoff.Nanoseconds(), 0)
			time.Sleep(backoff)
			if backoff < 30*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Second
		log.Printf("pbio-relay: uplink attached to %s", addr)
		// Label the uplink with the address we dialed, not the resolved
		// remote — it's the name the operator knows the upstream by.
		if err := s.RunUplinkTo(conn, static, addr); err != nil {
			log.Printf("pbio-relay: uplink: %v", err)
			return // relay closed; no point redialing
		}
		log.Printf("pbio-relay: uplink to %s lost (redialing)", addr)
		time.Sleep(backoff)
	}
}
