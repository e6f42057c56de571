package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE lines, then one sample line
// per series, histograms as cumulative le-bucketed samples plus _sum and
// _count.  Output is deterministic: families in registration order,
// series sorted by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if m.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, escapeHelp(m.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
			return err
		}
		for _, s := range m.Series {
			if err := writeSeries(w, m.Name, m.Type, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, typ string, s SeriesSnapshot) error {
	if typ != "histogram" {
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelString(s.Labels, "", ""), s.Value)
		return err
	}
	h := s.Histogram
	cum := int64(0)
	for i, c := range h.Buckets {
		cum += c
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(s.Labels, "le", fmt.Sprint(BucketBound(i))), cum); err != nil {
			return err
		}
	}
	cum += h.Inf
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(s.Labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labelString(s.Labels, "", ""), h.Sum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.Labels, "", ""), h.Count); err != nil {
		return err
	}
	// Quantile estimates ride the exposition as untyped <name>_quantile
	// samples (summary syntax, separate sample name so typed-histogram
	// scrapers stay happy).  Prometheus proper recomputes quantiles from
	// the buckets; these are for humans, curl, and pbio-mon, which should
	// not have to re-derive the rank walk the JSON export already does.
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", h.P50}, {"0.9", h.P90}, {"0.99", h.P99}} {
		if _, err := fmt.Fprintf(w, "%s_quantile%s %g\n",
			name, labelString(s.Labels, "quantile", q.q), q.v); err != nil {
			return err
		}
	}
	return nil
}

// labelString renders {k="v",…} with keys sorted, optionally appending
// one extra pair (the histogram le label).  Empty set renders as "".
func labelString(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	// Insertion sort: label sets are tiny.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslashes, quotes and newlines — exactly the set
		// the exposition format requires escaped in label values.
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// Handler returns the Prometheus text endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Handle mounts an extra debug endpoint on the registry's ServeMux
// (and thus on the -metrics-addr listener of every daemon serving this
// registry).  Registering the same pattern twice keeps the last handler.
// Nil-safe: a nil registry ignores the call.
func (r *Registry) Handle(pattern string, h http.Handler) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	if r.handlers == nil {
		r.handlers = make(map[string]http.Handler)
	}
	r.handlers[pattern] = h
	r.mu.Unlock()
}

// ServeMux returns the full observability surface:
//
//	/metrics            Prometheus text exposition
//	/debug/pprof/       net/http/pprof profiling endpoints
//	plus any endpoints mounted with Handle (/debug/trace.json when a
//	tracectx tracer is exported on this registry)
func (r *Registry) ServeMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	// net/http/pprof only self-registers on http.DefaultServeMux; wire
	// its handlers into ours explicitly so daemons never expose a
	// default mux by accident.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	r.mu.Lock()
	for pattern, h := range r.handlers {
		mux.Handle(pattern, h)
	}
	r.mu.Unlock()
	return mux
}

// Serve listens on addr and serves the registry's observability surface
// in a background goroutine.  It returns the bound listener (so addr may
// use port 0) or an error if the listen fails.  The caller owns the
// listener; closing it stops the server.
func Serve(addr string, r *Registry) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.ServeMux()}
	go srv.Serve(ln)
	return ln, nil
}
