package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/pbio"
)

// buildRelay compiles the pbio-relay binary once per test run.
var buildOnce sync.Once
var builtBin string
var buildErr error

func buildRelay(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pbio-relay-test")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "pbio-relay")
		cmd := exec.Command("go", "build", "-o", builtBin, ".")
		cmd.Stderr = os.Stderr
		buildErr = cmd.Run()
	})
	if buildErr != nil {
		t.Fatalf("go build: %v", buildErr)
	}
	return builtBin
}

// relayProc is a running pbio-relay child process with its announced
// addresses.
type relayProc struct {
	metricsAddr, prodAddr, consAddr string
}

// startRelayProc launches the binary with ephemeral ports plus extra
// args and parses the announce lines off stdout.
//
// The test owns the child outright, so no failure here can wedge
// `go test`: the child leads its own process group and cleanup kills the
// group; its stderr is captured (and shown when the test fails), never
// the pipe `go test` reads from this binary — a child that outlived the
// test would hold that pipe open and `go test` would wait on it; and
// WaitDelay bounds Wait should anything keep the child's pipes open.
func startRelayProc(t *testing.T, bin string, extra ...string) *relayProc {
	t.Helper()
	args := append([]string{
		"-producers", "127.0.0.1:0",
		"-consumers", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 5 * time.Second
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &relayProc{}
	t.Cleanup(func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
		if t.Failed() {
			t.Logf("pbio-relay %v stderr:\n%s", extra, stderr.Bytes())
		}
	})

	// The daemon announces its bound addresses on stdout:
	//   pbio-relay: metrics on 127.0.0.1:NNN
	//   pbio-relay: producers on 127.0.0.1:NNN, consumers on 127.0.0.1:NNN
	sc := bufio.NewScanner(stdout)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for p.metricsAddr == "" || p.prodAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("pbio-relay exited before announcing its addresses")
			}
			if rest, ok := strings.CutPrefix(line, "pbio-relay: metrics on "); ok {
				p.metricsAddr = strings.TrimSpace(rest)
			}
			if rest, ok := strings.CutPrefix(line, "pbio-relay: producers on "); ok {
				parts := strings.Split(rest, ", consumers on ")
				if len(parts) != 2 {
					t.Fatalf("unexpected announce line: %q", line)
				}
				p.prodAddr, p.consAddr = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
			}
		case <-deadline:
			t.Fatal("timed out waiting for pbio-relay to announce its addresses")
		}
	}
	// Keep draining so the child never blocks on a full stdout pipe.
	go func() {
		for range lines {
		}
	}()
	return p
}

// waitGauge polls a scraped gauge until it reaches want.
func waitGauge(t *testing.T, addr, name string, want int64) {
	t.Helper()
	for start := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		if scrapeCounter(t, addr, name) >= want {
			return
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("timed out waiting for %s >= %d", name, want)
		}
	}
}

// TestMetricsEndToEnd builds the real pbio-relay binary, runs it with
// -metrics-addr, pushes records through producer and consumer sockets,
// and scrapes the live /metrics endpoint asserting the frame counters
// advanced.  This is the end-to-end proof that the observability surface
// works outside unit tests: flag parsing, the HTTP server, the relay's
// CounterFunc bridge, and the Prometheus exposition all in one path.
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	p := startRelayProc(t, buildRelay(t))

	// Baseline scrape: valid exposition, zero frames.
	if v := scrapeCounter(t, p.metricsAddr, "pbio_relay_frames_total"); v != 0 {
		t.Fatalf("pbio_relay_frames_total = %d before any traffic", v)
	}

	// Push records through: consumer first (so nothing is dropped), then
	// a producer stream.  Dial returning only means the TCP handshake
	// completed — the relay registers the subscription when its accept
	// loop picks the connection up, so wait for the consumers gauge
	// before producing anything a pub/sub broker would rightly not
	// deliver to a not-yet-joined subscriber.
	const records = 5
	consConn, err := net.Dial("tcp", p.consAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer consConn.Close()
	waitGauge(t, p.metricsAddr, "pbio_relay_consumers", 1)

	fields := []pbio.FieldSpec{pbio.F("v", pbio.Int)}
	pctx, err := pbio.NewContext(pbio.WithArch("sparc-v8"))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pctx.Register("e2e_rec", fields...)
	if err != nil {
		t.Fatal(err)
	}
	prodConn, err := net.Dial("tcp", p.prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer prodConn.Close()
	w := pctx.NewWriter(prodConn)
	rec := pf.NewRecord()
	for i := 0; i < records; i++ {
		rec.MustSetInt("v", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}

	cctx, err := pbio.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cctx.Register("e2e_rec", fields...)
	if err != nil {
		t.Fatal(err)
	}
	r := cctx.NewReader(consConn)
	for i := 0; i < records; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("consumer read %d: %v", i, err)
		}
		got, err := m.Decode(cf)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Int("v", 0); v != int64(i) {
			t.Fatalf("record %d: v = %d", i, v)
		}
	}

	// The consumer saw every record, so the relay has counted the frames;
	// the counter is read by the exporter at scrape time (CounterFunc).
	frames := scrapeCounter(t, p.metricsAddr, "pbio_relay_frames_total")
	if frames < records {
		t.Errorf("pbio_relay_frames_total = %d, want >= %d", frames, records)
	}
	if b := scrapeCounter(t, p.metricsAddr, "pbio_relay_forwarded_bytes_total"); b <= 0 {
		t.Errorf("pbio_relay_forwarded_bytes_total = %d, want > 0", b)
	}
	if f := scrapeCounter(t, p.metricsAddr, "pbio_relay_checksum_failures_total"); f != 0 {
		t.Errorf("pbio_relay_checksum_failures_total = %d on a clean link", f)
	}
	// The queue-depth gauges ride the same exposition.
	if d := scrapeCounter(t, p.metricsAddr, "pbio_relay_queue_depth_frames"); d < 0 {
		t.Errorf("pbio_relay_queue_depth_frames = %d", d)
	}

	// The profiling surface is reachable on the same listener.
	resp, err := http.Get("http://" + p.metricsAddr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
}

// TestUplinkTreeEndToEnd stands up a 2-relay tree from the real binary —
// a root and a leaf attached with -uplink — publishes at the root and
// reads every record at the leaf.
func TestUplinkTreeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	bin := buildRelay(t)
	root := startRelayProc(t, bin)
	leaf := startRelayProc(t, bin, "-uplink", root.consAddr, "-queue", "512", "-queue-policy", "block")

	// The leaf's uplink shows up as a consumer at the root.
	waitGauge(t, root.metricsAddr, "pbio_relay_consumers", 1)

	consConn, err := net.Dial("tcp", leaf.consAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer consConn.Close()
	waitGauge(t, leaf.metricsAddr, "pbio_relay_consumers", 1)

	const records = 5
	pctx, err := pbio.NewContext(pbio.WithArch("sparc-v8"))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pctx.Register("tree_rec", pbio.F("v", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	prodConn, err := net.Dial("tcp", root.prodAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer prodConn.Close()
	w := pctx.NewWriter(prodConn)
	rec := pf.NewRecord()
	for i := 0; i < records; i++ {
		rec.MustSetInt("v", 0, int64(i))
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}

	cctx, err := pbio.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cf, err := cctx.Register("tree_rec", pbio.F("v", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	r := cctx.NewReader(consConn)
	for i := 0; i < records; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("leaf consumer read %d: %v", i, err)
		}
		got, err := m.Decode(cf)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := got.Int("v", 0); v != int64(i) {
			t.Fatalf("record %d arrived as v=%d", i, v)
		}
	}
}

// TestExitNonZeroOnStartupFailure is the regression test for the silent
// exit-0 bug: startup failures — an unbindable -metrics-addr, a bad
// -queue-policy — must exit non-zero with the cause on stderr.
func TestExitNonZeroOnStartupFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := buildRelay(t)

	// Occupy a port so the metrics bind must fail.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback listener: %v", err)
	}
	defer ln.Close()

	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{
			name: "metrics bind conflict",
			args: []string{
				"-producers", "127.0.0.1:0",
				"-consumers", "127.0.0.1:0",
				"-metrics-addr", ln.Addr().String(),
			},
			wantMsg: "address already in use",
		},
		{
			name: "bad queue policy",
			args: []string{
				"-producers", "127.0.0.1:0",
				"-consumers", "127.0.0.1:0",
				"-queue-policy", "slowly",
			},
			wantMsg: "unknown queue policy",
		},
		{
			name: "subscribe without uplink",
			args: []string{
				"-producers", "127.0.0.1:0",
				"-consumers", "127.0.0.1:0",
				"-subscribe", "tick",
			},
			wantMsg: "-subscribe requires -uplink",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, tc.args...)
			cmd.WaitDelay = 5 * time.Second
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("pbio-relay kept running instead of failing: %s", out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("err = %v (output %q), want non-zero exit", err, out)
			}
			if code := ee.ExitCode(); code == 0 {
				t.Fatalf("exit code 0 on startup failure (output %q)", out)
			}
			if !strings.Contains(string(out), tc.wantMsg) {
				t.Fatalf("output %q lacks %q", out, tc.wantMsg)
			}
		})
	}
}

// scrapeCounter GETs /metrics and returns the named sample's value.
func scrapeCounter(t *testing.T, addr, name string) int64 {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape: content-type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("scrape: bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("scrape: %s not found in exposition", name)
	return 0
}
