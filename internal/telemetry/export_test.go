package telemetry

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRegistry builds a registry with one of everything, with fixed
// values, so the text exposition is fully deterministic.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("pbio_frames_total", "Frames moved through the transport.")
	c.Add(42)
	g := r.Gauge("pbio_consumers", "Attached consumers.")
	g.Set(3)

	// Children created out of sorted order, plus a label value that
	// needs escaping: the exporter must sort and quote.
	v := r.CounterVec("pbio_decodes_total", "Record decodes by conversion path.", "format", "path")
	v.With("mixed", "zero_copy").Add(7)
	v.With("mixed", "dcg").Add(5)
	v.With(`odd"name`, "interp").Add(1)

	h := r.Histogram("pbio_decode_nanos", "Latency of one decode.")
	h.Observe(100)     // bucket 0 (le 128)
	h.Observe(300)     // bucket 2 (le 512)
	h.Observe(1 << 40) // +Inf

	r.CounterFunc("pbio_resyncs_total", "Resyncs, read from the relay.", func() int64 { return 11 })
	r.GaugeFunc("pbio_formats", "Known formats.", func() int64 { return 2 })

	// Labeled export-time-read families — the shape the relay's
	// per-format accounting exports (PR 8): values live in the relay's
	// own atomics, the registry reads them at scrape time.
	fv := r.CounterFuncVec("pbio_relay_format_forwarded_records_total",
		"Records forwarded, by format name.", "format")
	fv.With(func() int64 { return 1234 }, "temps")
	fv.With(func() int64 { return 56 }, "events")
	gv := r.GaugeFuncVec("pbio_relay_format_queued_frames",
		"Frames currently queued, by format name.", "format")
	gv.With(func() int64 { return 3 }, "temps")
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "export.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s (run with -update to regenerate)\ngot:\n%s", golden, got)
	}
}

// TestPrometheusHistogramCumulative pins the le-bucket semantics: bucket
// samples are cumulative, end at +Inf == _count, and _sum matches.
func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_nanos", "")
	for _, v := range []int64{100, 100, 300, 1 << 40} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_nanos_bucket{le="128"} 2`,
		`lat_nanos_bucket{le="256"} 2`,
		`lat_nanos_bucket{le="512"} 3`,
		`lat_nanos_bucket{le="+Inf"} 4`,
		`lat_nanos_sum 1099511628276`, // 100+100+300 + 1<<40
		`lat_nanos_count 4`,
		// Quantile estimates ride as untyped <name>_quantile samples;
		// values match the JSON export's rank-walk estimator.
		`lat_nanos_quantile{quantile="0.5"} 128`,
		`lat_nanos_quantile{quantile="0.9"}`,
		`lat_nanos_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestServeMuxEndpoints drives the full observability surface over HTTP:
// /metrics and /debug/pprof/.
func TestServeMuxEndpoints(t *testing.T) {
	r := goldenRegistry()
	srv := httptest.NewServer(r.ServeMux())
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "pbio_frames_total 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%.200s", body)
	}
}
