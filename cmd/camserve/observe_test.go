package main

// Tests for the observability loop (observe.go): the sampled-history
// endpoints, the SLO-driven readiness degrade, and the pressure-aware
// Retry-After.
// Everything runs under an injected clock with observeTick driven
// directly — no wall-clock sleeps, no background sampler goroutine.

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cambricon/internal/metrics"
	"cambricon/internal/tsdb"
)

// obsClock is a hand-cranked clock shared between the test goroutine
// and the HTTP handler goroutines (which read it through tsdb queries).
type obsClock struct {
	mu sync.Mutex
	t  time.Time
}

func newObsClock() *obsClock {
	return &obsClock{t: time.UnixMilli(1_700_000_000_000)}
}

func (c *obsClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *obsClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// observeServer builds a server with the sampler enabled under an
// injected clock. The observe goroutine is never started; tests call
// s.observeTick() themselves after advancing the clock.
func observeServer(t *testing.T, mutate func(*serverConfig)) (*server, *httptest.Server, *obsClock) {
	t.Helper()
	clock := newObsClock()
	cfg := serverConfig{
		seed: 7, maxInflight: 2, ledgerSize: 16,
		sampleInterval: time.Second,
		clock:          clock.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, ts := testServerCfg(t, cfg)
	return s, ts, clock
}

// queueWait returns the labelled queue-wait histogram the admission
// path observes into, so tests can synthesize congestion history.
func queueWait(s *server) *metrics.Histogram {
	return s.reg.Histogram(metricQueueWait, "seconds spent queued for a run slot, by benchmark",
		queueWaitBuckets, metrics.L("benchmark", "MLP"))
}

// get fetches a path and returns status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestObservabilityEndpointsDisabled: without -sample-interval the
// history endpoints explain themselves with a 404 instead of serving
// empty data.
func TestObservabilityEndpointsDisabled(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	for _, path := range []string{"/vars", "/alerts"} {
		code, body := get(t, ts, path)
		if code != http.StatusNotFound {
			t.Fatalf("GET %s = %d without sampler, want 404", path, code)
		}
		if !strings.Contains(body, "sample-interval") {
			t.Fatalf("GET %s body %q does not point at -sample-interval", path, body)
		}
	}
}

// TestVarsEndpoint: sampled history comes back as JSON with the
// documented envelope, and a malformed window is a 400.
func TestVarsEndpoint(t *testing.T) {
	s, ts, clock := observeServer(t, nil)
	queueWait(s).Observe(0.0001) // series must exist before the baseline pass
	s.observeTick()              // baseline pass
	queueWait(s).Observe(0.01)
	clock.advance(time.Second)
	s.observeTick()

	code, body := get(t, ts, "/vars?window=5m")
	if code != http.StatusOK {
		t.Fatalf("GET /vars = %d, want 200: %s", code, body)
	}
	var vars struct {
		Now      int64 `json:"now_ms"`
		Passes   int64 `json:"passes"`
		Capacity int   `json:"capacity"`
		Series   []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("GET /vars is not JSON: %v\n%s", err, body)
	}
	if vars.Passes != 2 || vars.Capacity <= 0 || vars.Now != clock.now().UnixMilli() {
		t.Fatalf("vars envelope %+v disagrees with the injected clock (want passes=2, now=%d)",
			vars, clock.now().UnixMilli())
	}
	found := false
	for _, sr := range vars.Series {
		if strings.HasPrefix(sr.Name, metricQueueWait) {
			found = true
		}
	}
	if !found {
		t.Fatalf("queue-wait series missing from /vars: %s", body)
	}

	if code, _ := get(t, ts, "/vars?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("GET /vars?window=bogus = %d, want 400", code)
	}
}

// TestAlertsAndReadyzDegrade: sustained over-threshold queue waits push
// the default queue-wait-fast rule into fast-burn, which surfaces in
// /alerts and degrades /readyz to 503 until the burn clears.
func TestAlertsAndReadyzDegrade(t *testing.T) {
	s, ts, clock := observeServer(t, nil)
	queueWait(s).Observe(0.0001) // series must exist before the baseline pass
	s.observeTick()              // baseline

	if code, body := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d: %s", code, body)
	}
	code, body := get(t, ts, "/alerts")
	if code != http.StatusOK {
		t.Fatalf("GET /alerts = %d: %s", code, body)
	}

	// Every request spending a full second queued blows the 25.6ms
	// threshold: bad fraction 1.0 against a 1% budget is a 100x burn,
	// far over the 14.4 fast-burn bar in both windows.
	h := queueWait(s)
	for i := 0; i < 50; i++ {
		h.Observe(1.0)
	}
	clock.advance(time.Second)
	s.observeTick()

	code, body = get(t, ts, "/alerts")
	if code != http.StatusOK {
		t.Fatalf("GET /alerts = %d: %s", code, body)
	}
	var alerts struct {
		Alerts []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"alerts"`
		FastBurning []string `json:"fast_burning"`
	}
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatalf("GET /alerts is not JSON: %v\n%s", err, body)
	}
	burning := false
	for _, a := range alerts.Alerts {
		if a.Name == "queue-wait-fast" && a.State == tsdb.StateFastBurn {
			burning = true
		}
	}
	if !burning || len(alerts.FastBurning) == 0 {
		t.Fatalf("queue-wait-fast not fast-burning after sustained 1s waits: %s", body)
	}

	code, body = get(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "queue-wait-fast") {
		t.Fatalf("/readyz during fast-burn = %d %q, want 503 naming queue-wait-fast", code, body)
	}
}

// TestShedRetryAfterTracksQueueWait: with queue-wait history available a
// shed request's Retry-After stretches to the recent p90 instead of the
// blind 1..4s jitter — a client told to come back in a few seconds
// during 8-second queues would only be shed again.
func TestShedRetryAfterTracksQueueWait(t *testing.T) {
	s, ts, clock := observeServer(t, func(cfg *serverConfig) {
		cfg.maxInflight = 1
		cfg.queueDepth = 0
	})
	h := queueWait(s)
	h.Observe(0.0001) // series must exist before the baseline pass
	s.observeTick()   // baseline
	for i := 0; i < 20; i++ {
		h.Observe(8.0)
	}
	clock.advance(time.Second)
	s.observeTick()

	s.adm.slots <- struct{}{} // occupy the only slot so every POST sheds
	defer func() { <-s.adm.slots }()
	resp, _ := postRun(t, ts, "MLP")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed = %d, want 503", resp.StatusCode)
	}
	hint, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("unparsable Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	// The jittered fallback never exceeds 4; a pressure-derived hint from
	// 8s queue waits lands well above it, clamped to the 30s cap.
	if hint < 5 || hint > retryAfterMax {
		t.Fatalf("Retry-After = %d under 8s queue waits, want pressure-derived hint in [5, %d]",
			hint, retryAfterMax)
	}
}

// TestObservabilityFlagValidation: -slo without -sample-interval is a
// configuration error, not a silent no-op, and a bad -slo spec is
// rejected at startup.
func TestObservabilityFlagValidation(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	base := serverConfig{seed: 7, maxInflight: 1, ledgerSize: 4}

	cfg := base
	cfg.sloSpec = "x=latency:m:0.1:0.01"
	if _, err := newServer(cfg, logger); err == nil {
		t.Fatal("-slo without -sample-interval was accepted")
	}
	cfg = base
	cfg.sampleInterval = time.Second
	cfg.sloSpec = "not-a-rule"
	if _, err := newServer(cfg, logger); err == nil {
		t.Fatal("malformed -slo spec was accepted")
	}
}
