// Command pbio-fmtd runs a PBIO format server: a daemon that assigns
// content-addressed global IDs to record formats and serves their
// descriptions back to any component that encounters an unknown ID.
//
// With a format server, PBIO streams (connections or files) carry only an
// 8-byte format reference instead of full meta-information, and format
// identity is shared across every producer and consumer in a deployment:
//
//	pbio-fmtd -listen 127.0.0.1:7847 -stats 30s -metrics-addr 127.0.0.1:9847 &
//	# then, in applications:
//	ctx, _ := pbio.NewContext(pbio.WithFormatServer("127.0.0.1:7847"))
//
// With -metrics-addr the daemon serves /metrics (Prometheus text,
// including pbio_go_* runtime families), /debug/pprof/,
// /debug/flight (the flight-recorder
// journal as a PBIO stream), /healthz (liveness) and /readyz
// (readiness: 503 unless the format listener answers a probe dial).
// Client-side retry/redial storms (the fmtserver client retries
// invisibly with backoff) surface here as conns_total racing ahead of
// the number of deployed clients; -stats logs the same counters
// periodically.  SIGQUIT dumps the flight journal to -flight-dump.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/flightrec"
	"repro/internal/fmtserver"
	"repro/internal/telemetry"
	"repro/internal/telemetry/runtimebridge"
	"repro/internal/telemetry/tracectx"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7847", "address to listen on")
	statsEvery := flag.Duration("stats", 0, "print server stats at this interval (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/flight and /debug/pprof on this address (empty = disabled)")
	trace := flag.Bool("trace", false, "record a span per handled request, served at /debug/trace.json on -metrics-addr")
	flightCap := flag.Int("flight", 4096, "flight recorder ring capacity in events (0 = disabled)")
	flightDump := flag.String("flight-dump", "pbio-fmtd.flight.pbio", "write the flight journal here on SIGQUIT")
	flag.Parse()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("pbio-fmtd: %v", err)
	}
	srv := fmtserver.NewServer()
	var tracer *tracectx.Tracer
	if *trace {
		tracer = tracectx.New("pbio-fmtd", 1, 0)
		srv.SetTracer(tracer)
	}
	var rec *flightrec.Recorder
	if *flightCap > 0 {
		rec = flightrec.New("pbio-fmtd", *flightCap)
		srv.SetFlight(rec)
		rec.DumpOnSignal(*flightDump)
	}
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		srv.SetTelemetry(reg)
		tracer.ExportMetrics(reg)
		runtimebridge.Start(reg, 0)
		if rec != nil {
			rec.ExportMetrics(reg)
			reg.Handle("/debug/flight", rec.Handler())
		}
		reg.Handle("/healthz", telemetry.LiveHandler())
		// Ready means the format port itself accepts connections, not
		// just the metrics mux: probe it the way a client would dial.
		reg.Handle("/readyz", telemetry.ReadyHandler(func() error {
			c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
			if err != nil {
				return fmt.Errorf("format listener %s: %w", ln.Addr(), err)
			}
			c.Close()
			return nil
		}))
		mln, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("pbio-fmtd: %v", err)
		}
		fmt.Printf("pbio-fmtd: metrics on %s\n", mln.Addr())
	}
	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				st := srv.Stats()
				log.Printf("pbio-fmtd: %d conns, %d requests (%d registers, %d lookups, "+
					"%d misses, %d errors), %d formats; a conns/clients ratio above 1 "+
					"means clients are redialing (retry backoff)",
					st.Conns, st.Requests, st.Registers, st.Lookups,
					st.Misses, st.Errors, srv.Len())
			}
		}()
	}
	fmt.Printf("pbio-fmtd: serving formats on %s\n", ln.Addr())
	log.Fatal(srv.Serve(ln))
}
