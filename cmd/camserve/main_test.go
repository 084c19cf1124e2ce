package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cambricon/internal/cmdtest"
)

// TestMain lets tests run the real camserve in a child process
// (cmdtest.Start).
func TestMain(m *testing.M) { cmdtest.Main(m, "camserve", main) }

// testServer builds a memory-only server over a discarding logger and
// runs warmup synchronously so /readyz is deterministic in tests. Queue
// depth 0 keeps the historical semantics: no free slot means an
// immediate 503.
func testServer(t *testing.T, maxInflight, ledgerSize int) (*server, *httptest.Server) {
	t.Helper()
	return testServerCfg(t, serverConfig{
		seed: 7, maxInflight: maxInflight, ledgerSize: ledgerSize,
	})
}

func testServerCfg(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := newServer(cfg, logger)
	if err != nil {
		t.Fatal(err)
	}
	s.warmup()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, base, benchmark string) (*http.Response, runRecord) {
	t.Helper()
	body, _ := json.Marshal(runRequest{Benchmark: benchmark})
	resp, err := http.Post(base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec runRecord
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rec
}

// metricValue digs one un-labelled sample out of a Prometheus text page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in page:\n%s", name, page)
	return 0
}

// labeledMetricValue digs one labelled sample out of a Prometheus text
// page; series is the full prefix, e.g. `name{a="b",c="d"}`.
func labeledMetricValue(t *testing.T, page, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %s not found in page:\n%s", series, page)
	return 0
}

// get fetches a path and returns status and body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
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

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthAndReadiness(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := newServer(serverConfig{seed: 7, maxInflight: 2, ledgerSize: 8}, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	// Not ready until warmup has generated the programs.
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before warmup = %d, want 503", resp.StatusCode)
	}
	s.warmup()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after warmup = %d", resp.StatusCode)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	resp, rec := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d", resp.StatusCode)
	}
	if rec.Status != "ok" || rec.Benchmark != "MLP" || rec.Cycles <= 0 || rec.ID != 1 {
		t.Fatalf("run record %+v", rec)
	}
	// Unknown benchmark and malformed body are client errors.
	resp, _ = postRun(t, ts.URL, "no-such-benchmark")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown benchmark = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
	// Wrong method on a registered path.
	resp, err = http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run = %d, want 405", resp.StatusCode)
	}
	// The run shows up in metrics and ledger.
	page := scrape(t, ts.URL)
	if got := metricValue(t, page, "cambricon_bench_runs_completed_total"); got != 1 {
		t.Fatalf("runs completed = %v, want 1", got)
	}
}

// TestRunBodyLimit: a POST /run body one byte over maxRunBody is a 413
// that mints no ledger row, while a valid body of exactly maxRunBody
// bytes still runs.
func TestRunBodyLimit(t *testing.T) {
	s, ts := testServer(t, 1, 8)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	prefix, suffix := `{"benchmark":"`, `"}`
	over := prefix + strings.Repeat("x", maxRunBody+1-len(prefix)-len(suffix)) + suffix
	if code := post(over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body = %d, want 413", len(over), code)
	}
	if rows := s.ledger.List(); len(rows) != 0 {
		t.Fatalf("over-limit body left ledger rows %+v, want none", rows)
	}
	valid := `{"benchmark":"MLP"` + strings.Repeat(" ", maxRunBody-len(`{"benchmark":"MLP"}`)) + "}"
	if code := post(valid); code != http.StatusOK {
		t.Fatalf("%d-byte valid body = %d, want 200", len(valid), code)
	}
	if rows := s.ledger.List(); len(rows) != 1 || rows[0].ID != 1 || rows[0].Status != "ok" {
		t.Fatalf("ledger after the valid run = %+v, want one ok row with id 1", rows)
	}
}

func TestRunSaturationReturns503(t *testing.T) {
	s, ts := testServer(t, 1, 8)
	// Occupy the single slot; with queue depth 0 the next request must
	// bounce immediately, not queue.
	s.adm.slots <- struct{}{}
	resp, _ := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated POST /run = %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("503 missing Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 || secs > 5 {
		t.Fatalf("Retry-After = %q, want a jittered 1..5 whole-second hint", ra)
	}
	// Readiness means "programs generated", not "has spare capacity": a
	// shed leaves /readyz at 200.
	if code, body := get(t, ts.URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after a shed = %d %q, want 200", code, body)
	}
	<-s.adm.slots
	resp, _ = postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run after slot freed = %d", resp.StatusCode)
	}
	page := scrape(t, ts.URL)
	if got := labeledMetricValue(t, page, metricSheds+`{benchmark="MLP",reason="queue-full"}`); got != 1 {
		t.Fatalf("%s{MLP,queue-full} = %v, want 1", metricSheds, got)
	}
}

// TestRetryAfterJitter: the Retry-After hint on shed load comes from a
// seeded jitter stream over 1..4, not a constant — repeated sheds must
// see more than one value so clients spread their retries.
func TestRetryAfterJitter(t *testing.T) {
	s, ts := testServer(t, 1, 64)
	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		resp, _ := postRun(t, ts.URL, "MLP")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed %d = %d, want 503", i, resp.StatusCode)
		}
		seen[resp.Header.Get("Retry-After")] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 sheds produced Retry-After values %v; want jitter, not a constant", seen)
	}
}

// TestConcurrentRunsConsistentMetrics drives the acceptance criterion:
// 8 concurrent POST /run all succeed (the semaphore has 8 slots), every
// run reports the same deterministic cycle count, and /metrics agrees
// with the ledger afterwards.
func TestConcurrentRunsConsistentMetrics(t *testing.T) {
	const n = 8
	_, ts := testServer(t, n, 2*n)
	var wg sync.WaitGroup
	codes := make([]int, n)
	cycles := make([]int64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(runRequest{Benchmark: "MLP"})
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var rec runRecord
			if json.NewDecoder(resp.Body).Decode(&rec) == nil {
				cycles[i] = rec.Cycles
			}
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d = %d, want 200 (semaphore has %d slots)", i, code, n)
		}
		if cycles[i] != cycles[0] {
			t.Fatalf("run %d reported %d cycles, run 0 reported %d — not deterministic",
				i, cycles[i], cycles[0])
		}
	}
	page := scrape(t, ts.URL)
	if got := metricValue(t, page, "cambricon_bench_runs_completed_total"); got != n {
		t.Fatalf("runs completed = %v, want %d", got, n)
	}
	if got := metricValue(t, page, "cambricon_bench_runs_started_total"); got != n {
		t.Fatalf("runs started = %v, want %d", got, n)
	}
	if got := metricValue(t, page, metricInFlight); got != 0 {
		t.Fatalf("in-flight gauge = %v after the burst, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger struct {
		Runs []runRecord `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Runs) != n {
		t.Fatalf("ledger holds %d runs, want %d", len(ledger.Runs), n)
	}
	for _, r := range ledger.Runs {
		if r.Status != "ok" || r.Cycles != cycles[0] {
			t.Fatalf("ledger row %+v disagrees with responses", r)
		}
	}
}

func TestRunsLedgerRingNewestFirst(t *testing.T) {
	_, ts := testServer(t, 2, 3)
	for i := 0; i < 5; i++ {
		if resp, _ := postRun(t, ts.URL, "MLP"); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d = %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ledger struct {
		Runs []runRecord `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Runs) != 3 {
		t.Fatalf("ring retained %d rows, want 3", len(ledger.Runs))
	}
	for i, wantID := range []int64{5, 4, 3} {
		if ledger.Runs[i].ID != wantID {
			t.Fatalf("ledger order %+v, want ids newest-first 5,4,3", ledger.Runs)
		}
	}
}

// TestRequestCounterLabelsByRoute: the request counter is labelled with
// the matched route, not the raw path, so 400 requests to 400 distinct
// paths add one series per (route, code) pair — plus one per code for
// paths no route serves — while the access log keeps the raw path.
func TestRequestCounterLabelsByRoute(t *testing.T) {
	var logs bytes.Buffer
	s, err := newServer(serverConfig{seed: 7, maxInflight: 1, ledgerSize: 4},
		slog.New(slog.NewJSONHandler(&logs, nil)))
	if err != nil {
		t.Fatal(err)
	}
	s.warmup()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	paths := []string{"/healthz"}
	for i := 1; i <= 200; i++ {
		paths = append(paths, "/runs/"+strconv.Itoa(i), "/scan-"+strconv.Itoa(i))
	}
	for i := 1; i <= 3; i++ {
		paths = append(paths, "/runs/"+strconv.Itoa(i)+"/trace")
	}
	for _, path := range paths {
		want := http.StatusNotFound
		if path == "/healthz" {
			want = http.StatusOK
		}
		if code, _ := get(t, ts.URL, path); code != want {
			t.Fatalf("GET %s = %d, want %d", path, code, want)
		}
	}

	page := scrape(t, ts.URL)
	want := map[string]float64{
		`{code="200",path="/healthz"}`:         1,
		`{code="404",path="/runs/{id}"}`:       200,
		`{code="404",path="unmatched"}`:        200,
		`{code="404",path="/runs/{id}/trace"}`: 3,
	}
	var series []string
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, metricRequests+"{") {
			series = append(series, line)
		}
	}
	if len(series) != len(want) {
		t.Fatalf("%s has %d series, want %d:\n%s", metricRequests, len(series), len(want), strings.Join(series, "\n"))
	}
	for labels, n := range want {
		if got := labeledMetricValue(t, page, metricRequests+labels); got != n {
			t.Fatalf("%s%s = %v, want %v", metricRequests, labels, got, n)
		}
	}

	ts.Close() // wait for every handler's access-log write
	for _, raw := range []string{"/runs/17", "/scan-17"} {
		if !strings.Contains(logs.String(), `"path":"`+raw+`"`) {
			t.Fatalf("access log lacks the raw path %s", raw)
		}
	}
}
