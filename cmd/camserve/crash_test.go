package main

// Crash-safety tests (docs/ROBUSTNESS.md, "Serving-layer robustness"):
// restart recovery over a shared WAL directory, per-request panic
// isolation under chaos, injected restore failures, per-request
// deadlines, and end-to-end survival of a torn WAL append.
// TestSIGKILLRecoveryAcrossProcesses runs the kill-and-restart criterion
// against real camserve processes.

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cambricon/internal/cmdtest"
	"cambricon/internal/ledger"
)

func getRuns(t *testing.T, base string) []runRecord {
	t.Helper()
	resp, err := http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Runs []runRecord `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Runs
}

func findRun(runs []runRecord, id int64) (runRecord, bool) {
	for _, r := range runs {
		if r.ID == id {
			return r, true
		}
	}
	return runRecord{}, false
}

// TestCrashRecoveryAcrossRestart is the kill-and-restart criterion,
// in-process: a server dies (no shutdown, no Close — the SIGKILL shape)
// with one finished run and one still in flight; a second server over
// the same WAL directory serves the finished run back, surfaces the
// in-flight one as interrupted, continues the ID sequence, and fresh
// runs reproduce the recovered stats digest bit for bit.
func TestCrashRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{seed: 7, maxInflight: 2, ledgerSize: 16, walDir: dir}
	s1, ts1 := testServerCfg(t, cfg)
	resp, rec1 := postRun(t, ts1.URL, "MLP")
	if resp.StatusCode != http.StatusOK || rec1.StatsDigest == "" {
		t.Fatalf("run 1 = %d, digest %q", resp.StatusCode, rec1.StatsDigest)
	}
	// A run accepted and started but never finished: the in-flight-at-
	// crash shape. Only transient events reach the WAL.
	id2 := s1.ledger.NewID()
	row := ledger.Row{ID: id2, Benchmark: "Conv", ConfigKey: s1.configKey,
		Start: time.Now().UTC().Format(time.RFC3339Nano), Status: ledger.StatusAccepted}
	s1.append(context.Background(), row)
	row.Status = ledger.StatusRunning
	s1.append(context.Background(), row)
	ts1.Close() // crash: no drain, no ledger.Close

	s2, ts2 := testServerCfg(t, cfg)
	if s2.recovery.Rows != 2 || s2.recovery.Interrupted != 1 {
		t.Fatalf("recovery %+v, want 2 rows with 1 interrupted", s2.recovery)
	}
	runs := getRuns(t, ts2.URL)
	r1, ok := findRun(runs, rec1.ID)
	if !ok || r1.Status != "ok" || !r1.Recovered || r1.StatsDigest != rec1.StatsDigest {
		t.Fatalf("recovered run 1 = %+v (found %v), want recovered ok with digest %q", r1, ok, rec1.StatsDigest)
	}
	r2, ok := findRun(runs, id2)
	if !ok || r2.Status != "interrupted" || !r2.Recovered || r2.Error == "" {
		t.Fatalf("recovered run 2 = %+v (found %v), want recovered interrupted", r2, ok)
	}
	// IDs stay monotonic and fresh runs agree with recovered history.
	resp, rec3 := postRun(t, ts2.URL, "MLP")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart run = %d", resp.StatusCode)
	}
	if rec3.ID <= id2 {
		t.Fatalf("post-restart run id %d did not advance past recovered high-water %d", rec3.ID, id2)
	}
	if rec3.Recovered {
		t.Fatalf("live run %+v marked recovered", rec3)
	}
	if rec3.StatsDigest != rec1.StatsDigest {
		t.Fatalf("post-restart digest %q != pre-crash digest %q; stats drifted across restart",
			rec3.StatsDigest, rec1.StatsDigest)
	}
}

// freeAddr returns a loopback address no listener holds: the kernel
// picks a port for a listener that is closed at once.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startCamserve runs camserve on a free loopback port with args and
// waits for /readyz, which answers 200 once the asynchronous warm-up has
// generated the programs. It returns the process and its base URL.
func startCamserve(t *testing.T, args ...string) (*cmdtest.Proc, string) {
	t.Helper()
	addr := freeAddr(t)
	p := cmdtest.Start(t, "camserve", append([]string{"-addr", addr}, args...)...)
	base := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, base
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("camserve %q never became ready", args)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSIGKILLRecoveryAcrossProcesses is the kill-and-restart criterion
// against real processes. camserve runs over a WAL with every
// simulation stalled by chaos; once GET /runs shows a run as running,
// the process is SIGKILLed. A second camserve over the same WAL, without
// chaos, must serve that run back as interrupted and recovered, answer
// /healthz, run a fresh simulation under a higher id, and count only
// that one in /metrics.
func TestSIGKILLRecoveryAcrossProcesses(t *testing.T) {
	wal := t.TempDir()
	p1, base1 := startCamserve(t, "-wal", wal, "-chaos", "run-delay=30s:1")
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		// Stalls until the kill cuts the connection.
		if resp, err := http.Post(base1+"/run", "application/json", strings.NewReader(`{"benchmark":"MLP"}`)); err == nil {
			resp.Body.Close()
		}
	}()
	var stalled runRecord
	for deadline := time.Now().Add(30 * time.Second); stalled.Status != ledger.StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatalf("no run reached %q; /runs = %+v", ledger.StatusRunning, getRuns(t, base1))
		}
		time.Sleep(10 * time.Millisecond)
		if runs := getRuns(t, base1); len(runs) == 1 {
			stalled = runs[0]
		}
	}
	p1.Kill()
	<-posted

	_, base2 := startCamserve(t, "-wal", wal)
	if r, ok := findRun(getRuns(t, base2), stalled.ID); !ok || r.Status != ledger.StatusInterrupted || !r.Recovered {
		t.Fatalf("run %d after kill and restart = %+v (found %v), want recovered interrupted", stalled.ID, r, ok)
	}
	if code, _ := get(t, base2, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after restart = %d", code)
	}
	resp, fresh := postRun(t, base2, "MLP")
	if resp.StatusCode != http.StatusOK || fresh.Status != ledger.StatusOK || fresh.ID <= stalled.ID {
		t.Fatalf("post-restart run = %d %+v, want ok with an id above %d", resp.StatusCode, fresh, stalled.ID)
	}
	if n := metricValue(t, scrape(t, base2), "cambricon_bench_runs_completed_total"); n != 1 {
		t.Fatalf("cambricon_bench_runs_completed_total = %v after one post-restart run, want 1", n)
	}
}

// TestChaosPanicCostsOne500NotTheDaemon: with panic=1 every simulation
// panics; each request must come back as a 500 with a failed ledger row
// while the daemon keeps answering.
func TestChaosPanicCostsOne500NotTheDaemon(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 8,
		chaosSpec: "panic=1",
	})
	for i := 0; i < 3; i++ {
		resp, _ := postRun(t, ts.URL, "MLP")
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("chaos-panic run %d = %d, want 500", i, resp.StatusCode)
		}
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon died under chaos: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after chaos panics = %d", hresp.StatusCode)
	}
	runs := getRuns(t, ts.URL)
	if len(runs) != 3 {
		t.Fatalf("%d ledger rows, want 3", len(runs))
	}
	for _, r := range runs {
		if r.Status != "failed" || r.HTTPStatus != http.StatusInternalServerError || !strings.Contains(r.Error, "panic") {
			t.Fatalf("chaos-panic row %+v, want failed/500 with the panic surfaced", r)
		}
	}
}

// TestChaosRestoreFailureIsA500: an injected snapshot-restore failure
// is this run's 500, and the next chaos-free slot still works (the
// suite-level test proves the pool is unpoisoned; here we prove the
// HTTP mapping).
func TestChaosRestoreFailureIsA500(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 8,
		chaosSpec: "restore-fail=1",
	})
	resp, _ := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos-restore-fail run = %d, want 500", resp.StatusCode)
	}
	runs := getRuns(t, ts.URL)
	if len(runs) != 1 || runs[0].Status != "failed" || !strings.Contains(runs[0].Error, "injected") {
		t.Fatalf("ledger rows %+v, want one failed row naming the injected failure", runs)
	}
}

// TestRequestTimeoutWhileQueued: a client deadline expires while the
// request waits for a slot — 504, a timeout ledger row, and the slot
// holder is unaffected.
func TestRequestTimeoutWhileQueued(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 1, queueDepth: 4, ledgerSize: 8,
	})
	s.adm.slots <- struct{}{} // hold the only slot for the whole test
	defer func() { <-s.adm.slots }()

	body, _ := json.Marshal(runRequest{Benchmark: "MLP"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Request-Timeout", "75ms")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline POST /run = %d, want 504", resp.StatusCode)
	}
	if el := time.Since(start); el < 50*time.Millisecond || el > 5*time.Second {
		t.Fatalf("timeout surfaced after %v, want ≈ the 75ms client deadline", el)
	}
	runs := getRuns(t, ts.URL)
	if len(runs) != 1 || runs[0].Status != "timeout" || runs[0].HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("ledger rows %+v, want one timeout/504 row", runs)
	}
}

// TestRequestTimeoutHeader: a Request-Timeout header only tightens the
// -run-timeout default. An unparsable or non-positive value leaves the
// default, and so does one at or above it, including values too large
// for a time.Duration, which used to overflow into an expired deadline.
func TestRequestTimeoutHeader(t *testing.T) {
	const def = 60 * time.Second
	s := &server{cfg: serverConfig{runTimeout: def}}
	for _, c := range []struct {
		header string
		want   time.Duration
	}{
		{"", def},
		{"75ms", 75 * time.Millisecond},
		{"2", 2 * time.Second},
		{"0", def},
		{"-1", def},
		{"NaN", def},
		{"abc", def},
		{"1e10", def},
		{"Inf", def},
		{"9999999999h", def},
		{"60.000001", def},
	} {
		r := httptest.NewRequest(http.MethodPost, "/run", nil)
		r.Header.Set("Request-Timeout", c.header)
		if got := s.requestTimeout(r); got != c.want {
			t.Errorf("Request-Timeout %q: deadline %v, want %v", c.header, got, c.want)
		}
	}
}

// TestWALTearSurvivesRestart: a WAL append torn mid-frame (chaos) does
// not fail the request, and a restart over the torn history replays the
// good records and serves the run back.
func TestWALTearSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 8,
		walDir: dir, chaosSpec: "wal-tear=2",
	})
	resp, rec := postRun(t, ts1.URL, "MLP")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run over torn WAL = %d, want 200 (durability degrades, requests do not)", resp.StatusCode)
	}
	_ = s1
	ts1.Close() // crash

	s2, ts2 := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 8,
		walDir: dir,
	})
	if s2.recovery.BadSegments != 1 {
		t.Fatalf("recovery %+v, want exactly the torn segment flagged bad", s2.recovery)
	}
	runs := getRuns(t, ts2.URL)
	r, ok := findRun(runs, rec.ID)
	if !ok || r.Status != "ok" || !r.Recovered {
		t.Fatalf("run after torn-WAL restart = %+v (found %v), want recovered ok", r, ok)
	}
}
