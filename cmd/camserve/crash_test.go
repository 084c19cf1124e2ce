package main

// Crash-safety tests (docs/ROBUSTNESS.md, "Serving-layer robustness"):
// restart recovery over a shared WAL directory, per-request panic
// isolation under chaos, injected restore failures, per-request
// deadlines, and end-to-end survival of a torn WAL append. The
// SIGKILL-a-real-process variant lives in `make smoke-crash`.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cambricon/internal/ledger"
)

func getRuns(t *testing.T, ts *httptest.Server) []runRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs")
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
	resp, rec1 := postRun(t, ts1, "MLP")
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
	runs := getRuns(t, ts2)
	r1, ok := findRun(runs, rec1.ID)
	if !ok || r1.Status != "ok" || !r1.Recovered || r1.StatsDigest != rec1.StatsDigest {
		t.Fatalf("recovered run 1 = %+v (found %v), want recovered ok with digest %q", r1, ok, rec1.StatsDigest)
	}
	r2, ok := findRun(runs, id2)
	if !ok || r2.Status != "interrupted" || !r2.Recovered || r2.Error == "" {
		t.Fatalf("recovered run 2 = %+v (found %v), want recovered interrupted", r2, ok)
	}
	// IDs stay monotonic and fresh runs agree with recovered history.
	resp, rec3 := postRun(t, ts2, "MLP")
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

// TestChaosPanicCostsOne500NotTheDaemon: with panic=1 every simulation
// panics; each request must come back as a 500 with a failed ledger row
// while the daemon keeps answering.
func TestChaosPanicCostsOne500NotTheDaemon(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 8,
		chaosSpec: "panic=1",
	})
	for i := 0; i < 3; i++ {
		resp, _ := postRun(t, ts, "MLP")
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
	runs := getRuns(t, ts)
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
	resp, _ := postRun(t, ts, "MLP")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos-restore-fail run = %d, want 500", resp.StatusCode)
	}
	runs := getRuns(t, ts)
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
	runs := getRuns(t, ts)
	if len(runs) != 1 || runs[0].Status != "timeout" || runs[0].HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("ledger rows %+v, want one timeout/504 row", runs)
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
	resp, rec := postRun(t, ts1, "MLP")
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
	runs := getRuns(t, ts2)
	r, ok := findRun(runs, rec.ID)
	if !ok || r.Status != "ok" || !r.Recovered {
		t.Fatalf("run after torn-WAL restart = %+v (found %v), want recovered ok", r, ok)
	}
}
