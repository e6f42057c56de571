package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/meshmon"
	"repro/internal/relay"
	"repro/pbio"
)

// buildBins compiles pbio-mon and pbio-relay once per test run.
var (
	buildOnce        sync.Once
	monBin, relayBin string
	buildErr         error
)

func buildBins(t *testing.T) (mon, relay string) {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pbio-mon-test")
		if err != nil {
			buildErr = err
			return
		}
		monBin = filepath.Join(dir, "pbio-mon")
		relayBin = filepath.Join(dir, "pbio-relay")
		for bin, pkg := range map[string]string{monBin: ".", relayBin: "repro/cmd/pbio-relay"} {
			cmd := exec.Command("go", "build", "-o", bin, pkg)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				buildErr = err
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("go build: %v", buildErr)
	}
	return monBin, relayBin
}

// relayProc is a running pbio-relay child with its announced addresses.
type relayProc struct {
	metricsAddr, prodAddr, consAddr string
}

// startRelay launches pbio-relay on ephemeral ports and parses the
// announce lines off stdout.
//
// The test owns the child outright, so no failure here can wedge
// `go test`: the child leads its own process group and cleanup kills the
// group; its stderr goes to a file (shown when the test fails), never to
// the pipe `go test` reads from this binary — a child that outlives the
// test would hold that pipe open and `go test` would wait on it; and
// WaitDelay bounds Wait on the stdout pipe should anything keep it open.
func startRelay(t *testing.T, bin string, extra ...string) *relayProc {
	t.Helper()
	args := append([]string{
		"-producers", "127.0.0.1:0",
		"-consumers", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.WaitDelay = 5 * time.Second
	stderr, err := os.CreateTemp(t.TempDir(), "pbio-relay-stderr")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
		stderr.Close()
		if t.Failed() {
			log, _ := os.ReadFile(stderr.Name())
			t.Logf("pbio-relay %v stderr:\n%s", extra, log)
		}
	})

	p := &relayProc{}
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
	go func() {
		for range lines {
		}
	}()
	return p
}

// httpStatus GETs a path on a daemon's metrics listener.
func httpStatus(t *testing.T, addr, path string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMonEndToEnd is the pbio-mon smoke test against real binaries: a
// 2-relay tree (root + leaf attached by -uplink, each with -node-id),
// traffic pushed through it, then the monitor pointed at EITHER hop must
// map both, name them, carry the per-format books, and exit 0.  The
// health probes ride the same daemons: /healthz always answers, the
// leaf's /readyz flips to 200 once its uplink attaches.  When
// $MESH_TOPOLOGY is set the crawled JSON is written there (the CI
// artifact).
func TestMonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	mon, relayExe := buildBins(t)
	root := startRelay(t, relayExe, "-node-id", "root")
	leaf := startRelay(t, relayExe, "-node-id", "leaf",
		"-uplink", root.consAddr, "-queue", "512", "-queue-policy", "block")

	// Liveness answers immediately; the leaf's readiness flips once the
	// uplink attaches (poll — the dial is asynchronous).
	for _, p := range []*relayProc{root, leaf} {
		if got := httpStatus(t, p.metricsAddr, "/healthz"); got != http.StatusOK {
			t.Fatalf("/healthz = %d", got)
		}
	}
	waitUntil(t, "leaf /readyz", func() bool {
		return httpStatus(t, leaf.metricsAddr, "/readyz") == http.StatusOK
	})

	// Push records root → leaf so the per-format accounting has a row.
	const records = 5
	pctx, err := pbio.NewContext(pbio.WithArch("sparc-v8"))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := pctx.Register("mon_rec", pbio.F("v", pbio.Int))
	if err != nil {
		t.Fatal(err)
	}
	consConn, err := net.Dial("tcp", leaf.consAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer consConn.Close()
	// Dial returns once the kernel has queued the connection; a relay
	// forwards only to consumers it has registered, so records produced
	// before then would be lost and the reads below would never return.
	// Wait for the whole path (root → leaf → this consumer) to be on the
	// books, and bound the reads anyway.
	waitUntil(t, "root to register the leaf and the leaf this consumer", func() bool {
		topo, err := meshmon.Crawl(root.metricsAddr, nil)
		if err != nil {
			return false
		}
		rn, ln := topo.Nodes[root.metricsAddr], topo.Nodes[leaf.metricsAddr]
		return rn != nil && ln != nil && len(rn.Info.Consumers) == 1 && len(ln.Info.Consumers) == 1
	})
	consConn.SetReadDeadline(time.Now().Add(15 * time.Second))
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
	if _, err := cctx.Register("mon_rec", pbio.F("v", pbio.Int)); err != nil {
		t.Fatal(err)
	}
	r := cctx.NewReader(consConn)
	for i := 0; i < records; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatalf("leaf consumer read %d: %v", i, err)
		}
	}

	// Let the books settle before invoking the one-shot CLI: both hops
	// crawlable with the root's mon_rec row at the produced count.
	waitUntil(t, "both hops crawlable with settled accounting", func() bool {
		topo, err := meshmon.Crawl(root.metricsAddr, nil)
		if err != nil || len(topo.Nodes) != 2 {
			return false
		}
		n := topo.Nodes[root.metricsAddr]
		if n == nil || n.Err != "" {
			return false
		}
		for _, f := range n.Info.Formats {
			if f.Name == "mon_rec" && f.Records == records {
				return true
			}
		}
		return false
	})

	// The monitor from either entry point: both hops, named, exit 0.
	for _, start := range []string{root.metricsAddr, leaf.metricsAddr} {
		out, err := exec.Command(mon, "-json", start).Output()
		if err != nil {
			t.Fatalf("pbio-mon -json %s: %v (stderr in test log)", start, err)
		}
		var topo meshmon.Topology
		if err := json.Unmarshal(out, &topo); err != nil {
			t.Fatalf("pbio-mon -json output: %v\n%s", err, out)
		}
		if len(topo.Nodes) != 2 {
			t.Fatalf("pbio-mon from %s mapped %d hops, want 2:\n%s", start, len(topo.Nodes), out)
		}
		ids := map[string]bool{}
		for _, n := range topo.Nodes {
			ids[n.ID()] = true
		}
		if !ids["root"] || !ids["leaf"] {
			t.Errorf("pbio-mon from %s mapped %v, want root and leaf", start, ids)
		}
		if len(topo.Roots) != 1 || topo.Roots[0] != root.metricsAddr {
			t.Errorf("pbio-mon from %s: roots = %v, want [%s]", start, topo.Roots, root.metricsAddr)
		}
		if start == root.metricsAddr {
			if path := os.Getenv("MESH_TOPOLOGY"); path != "" {
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Errorf("MESH_TOPOLOGY: %v", err)
				}
			}
		}
	}

	// The human rendering names both hops and the format too.
	out, err := exec.Command(mon, root.metricsAddr).Output()
	if err != nil {
		t.Fatalf("pbio-mon %s: %v", root.metricsAddr, err)
	}
	for _, want := range []string{"root (", "leaf (", "mon_rec", "per-hop:"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("pbio-mon text output lacks %q:\n%s", want, out)
		}
	}
}

// TestMonExitCodes: a healthy mesh exits 0 (covered above), an
// unreachable start exits 2, and a firing alert rule exits 1 — the CI
// gate contract.
func TestMonExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	mon, relayExe := buildBins(t)

	if err := exec.Command(mon, "127.0.0.1:1").Run(); exitCode(err) != 2 {
		t.Errorf("unreachable start: exit %d, want 2", exitCode(err))
	}

	// A relay whose -uplink never attaches: /readyz stays 503, and the
	// stranded hop still crawls (it is its own one-node mesh).
	p := startRelay(t, relayExe, "-node-id", "stranded", "-uplink", "127.0.0.1:1")
	if got := httpStatus(t, p.metricsAddr, "/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("unattached uplink /readyz = %d, want 503", got)
	}
	if got := httpStatus(t, p.metricsAddr, "/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", got)
	}

	// -queue-frac 0 makes every consumer a deep-queue alert; with no
	// consumers the mesh is healthy and the gate passes.
	if err := exec.Command(mon, "-queue-frac", "0", p.metricsAddr).Run(); exitCode(err) != 0 {
		t.Errorf("healthy one-hop mesh: exit %d, want 0", exitCode(err))
	}

	// A firing rule exits 1: serve a hand-built unhealthy hop (a stalled
	// consumer) and point the monitor at it.
	sick := relay.MeshInfo{Node: relay.MeshNodeInfo{ID: "sick"}}
	sick.Consumers = []relay.MeshConsumerInfo{{Remote: "slow:1", QueueDepth: 9, QueueCap: 16, Stalled: true}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(sick)
	}))
	defer srv.Close()
	out, err := exec.Command(mon, strings.TrimPrefix(srv.URL, "http://")).CombinedOutput()
	if exitCode(err) != 1 {
		t.Errorf("stalled consumer: exit %d, want 1\n%s", exitCode(err), out)
	}
	if !bytes.Contains(out, []byte("stalled-consumer")) {
		t.Errorf("no stalled-consumer alert in output:\n%s", out)
	}

	// -no-alerts turns the same crawl back into exit 0.
	if err := exec.Command(mon, "-no-alerts", strings.TrimPrefix(srv.URL, "http://")).Run(); exitCode(err) != 0 {
		t.Errorf("-no-alerts: exit %d, want 0", exitCode(err))
	}
}

// waitUntil polls cond with a 15-second deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// exitCode unwraps an exec error's status (0 when err is nil, -1 when
// the process never ran).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
