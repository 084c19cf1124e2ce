package main

// Tests for the request-tracing middleware and the flight recorder
// (docs/OBSERVABILITY.md, "Request tracing & the flight recorder"):
// W3C traceparent join/mint/propagate, the rejected-request span, the
// GET /runs/{id} debug bundle, and the Chrome Trace Event export.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"cambricon/internal/reqtrace"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// postRunHeader is postRun with a traceparent request header; it returns
// the response (body closed) and the decoded success record.
func postRunHeader(t *testing.T, ts *httptest.Server, benchmark, traceparent string) (*http.Response, runRecord) {
	t.Helper()
	body, _ := json.Marshal(runRequest{Benchmark: benchmark})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
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

// getRunDebug fetches GET /runs/{id} and decodes the debug bundle.
func getRunDebug(t *testing.T, ts *httptest.Server, id string) (*http.Response, runDebug) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d runDebug
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
	}
	return resp, d
}

// findSpan returns the first span with the given name, or nil.
func findSpan(b *reqtrace.Bundle, name string) *reqtrace.Span {
	if b == nil {
		return nil
	}
	for i := range b.Spans {
		if b.Spans[i].Name == name {
			return &b.Spans[i]
		}
	}
	return nil
}

// TestTraceparentPropagation: a request carrying a valid W3C traceparent
// joins that trace — the response header, the ledger row and the flight
// recorder all carry the caller's trace id (with camserve's own span id
// substituted, per the spec).
func TestTraceparentPropagation(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	resp, rec := postRunHeader(t, ts, "MLP", testTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d", resp.StatusCode)
	}
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	if rec.TraceID != wantTrace {
		t.Fatalf("record trace_id = %q, want %q", rec.TraceID, wantTrace)
	}
	out := resp.Header.Get("traceparent")
	parts := strings.Split(out, "-")
	if len(parts) != 4 || parts[0] != "00" || parts[1] != wantTrace {
		t.Fatalf("response traceparent %q does not continue trace %s", out, wantTrace)
	}
	if parts[2] == "00f067aa0ba902b7" {
		t.Fatalf("response traceparent %q reuses the caller's span id; camserve must substitute its own", out)
	}
	// The flight recorder joins on the same trace.
	dresp, d := getRunDebug(t, ts, "1")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/1 = %d", dresp.StatusCode)
	}
	if d.Trace == nil || d.Trace.TraceID != wantTrace {
		t.Fatalf("flight-recorder bundle %+v not on trace %s", d.Trace, wantTrace)
	}
	if d.TraceID != wantTrace {
		t.Fatalf("debug row trace_id = %q, want %q", d.TraceID, wantTrace)
	}
}

// TestTraceparentMintedWhenAbsentOrMalformed: with no usable incoming
// context camserve mints a fresh root — a well-formed, non-zero 32-hex
// trace id that is NOT the malformed header's id.
func TestTraceparentMintedWhenAbsentOrMalformed(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	for _, tc := range []struct {
		name, header string
	}{
		{"absent", ""},
		{"malformed", "00-ZZZ92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
		{"truncated", "00-4bf92f3577b34da6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, rec := postRunHeader(t, ts, "MLP", tc.header)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /run = %d", resp.StatusCode)
			}
			if len(rec.TraceID) != 32 || rec.TraceID == strings.Repeat("0", 32) {
				t.Fatalf("minted trace id %q is not a 32-hex non-zero id", rec.TraceID)
			}
			if strings.Contains(tc.header, rec.TraceID) {
				t.Fatalf("trace id %q was salvaged from malformed header %q", rec.TraceID, tc.header)
			}
			out := resp.Header.Get("traceparent")
			if _, ok := reqtrace.ParseTraceparent(out); !ok {
				t.Fatalf("response traceparent %q does not parse", out)
			}
			if !strings.Contains(out, rec.TraceID) {
				t.Fatalf("response traceparent %q disagrees with record trace id %q", out, rec.TraceID)
			}
		})
	}
}

// TestRejectedRunRecordsSpan: a 503 capacity bounce is a first-class
// observable outcome — the ledger row says rejected/503 and the flight
// recorder holds a queue.wait span carrying the shed verdict.
func TestRejectedRunRecordsSpan(t *testing.T) {
	s, ts := testServer(t, 1, 8)
	s.adm.slots <- struct{}{} // occupy the only slot
	resp, _ := postRun(t, ts.URL, "MLP")
	<-s.adm.slots
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated POST /run = %d, want 503", resp.StatusCode)
	}
	dresp, d := getRunDebug(t, ts, "1")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/1 = %d; rejected runs must reach the flight recorder", dresp.StatusCode)
	}
	if d.Status != "rejected" || d.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("rejected row = %+v, want status=rejected http_status=503", d.runRecord)
	}
	sp := findSpan(d.Trace, "queue.wait")
	if sp == nil {
		t.Fatalf("no queue.wait span in rejected bundle: %+v", d.Trace)
	}
	var rejected bool
	var verdict string
	for _, a := range sp.Attrs {
		switch a.Key {
		case "rejected":
			if b, ok := a.Value.(bool); ok && b {
				rejected = true
			}
		case "verdict":
			verdict, _ = a.Value.(string)
		}
	}
	if !rejected {
		t.Fatalf("queue.wait span %+v missing rejected=true attr", sp)
	}
	if verdict != "queue-full" {
		t.Fatalf("queue.wait verdict = %q, want queue-full", verdict)
	}
	if d.Stalls != nil {
		t.Fatalf("rejected run has a stall breakdown %+v; nothing was simulated", d.Stalls)
	}
}

// TestRunDebugBundle: a successful warm run's GET /runs/{id} joins the
// ledger row with the span timeline, the CPI-stack stall breakdown
// (summing exactly to the cycle count), restore bytes and HTTP status.
func TestRunDebugBundle(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	// First run pays snapshot prep; the second is the steady-state warm
	// request whose flight-recorder entry we assert.
	if resp, _ := postRun(t, ts.URL, "MLP"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup run = %d", resp.StatusCode)
	}
	resp, rec := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d", resp.StatusCode)
	}
	dresp, d := getRunDebug(t, ts, "2")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/2 = %d", dresp.StatusCode)
	}
	if d.HTTPStatus != http.StatusOK || d.Status != "ok" || d.Cycles != rec.Cycles {
		t.Fatalf("debug row %+v disagrees with response %+v", d.runRecord, rec)
	}
	if d.Stalls == nil {
		t.Fatal("debug bundle missing stall breakdown")
	}
	if sum := d.Stalls.Sum(); sum != d.Cycles {
		t.Fatalf("stall breakdown sums to %d, want exactly cycles=%d", sum, d.Cycles)
	}
	if d.RestoreBytes <= 0 {
		t.Fatalf("warm run restore_bytes = %d, want > 0", d.RestoreBytes)
	}
	for _, want := range []string{"queue.wait", "pool.acquire", "snapshot.restore", "sim.run", "wal.append", "encode.json"} {
		if findSpan(d.Trace, want) == nil {
			t.Fatalf("span %q missing from bundle: %+v", want, d.Trace.Spans)
		}
	}
}

// TestRunByIDNotFound: unknown and non-numeric ids are JSON 404s, and
// ids evicted from the bounded flight store 404 too.
func TestRunByIDNotFound(t *testing.T) {
	_, ts := testServer(t, 2, 2) // flight recorder bounded to 2 entries
	for _, id := range []string{"99", "not-a-number"} {
		resp, _ := getRunDebug(t, ts, id)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /runs/%s = %d, want 404", id, resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		if resp, _ := postRun(t, ts.URL, "MLP"); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d failed", i)
		}
	}
	// Run 1 was evicted by run 3; runs 2 and 3 remain.
	if resp, _ := getRunDebug(t, ts, "1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted GET /runs/1 = %d, want 404", resp.StatusCode)
	}
	if resp, _ := getRunDebug(t, ts, "3"); resp.StatusCode != http.StatusOK {
		t.Fatalf("retained GET /runs/3 = %d, want 200", resp.StatusCode)
	}
}

// TestRunTraceChromeExport: GET /runs/{id}/trace is structurally valid
// Chrome Trace Event JSON — the shape ui.perfetto.dev loads.
func TestRunTraceChromeExport(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	if resp, _ := postRun(t, ts.URL, "MLP"); resp.StatusCode != http.StatusOK {
		t.Fatal("run failed")
	}
	resp, err := http.Get(ts.URL + "/runs/1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /runs/1/trace = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("trace content-type %q", ct)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var complete int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
			names[ev.Name] = true
			if ev.Dur < 0 || ev.TS < 0 {
				t.Fatalf("event %+v has negative timing", ev)
			}
		}
	}
	if complete < 3 {
		t.Fatalf("only %d complete (X) events in trace, want at least request+queue.wait+sim.run", complete)
	}
	for _, want := range []string{"request", "sim.run"} {
		if !names[want] {
			t.Fatalf("trace events %v missing %q", names, want)
		}
	}
	// 404 for unknown ids on the trace route too.
	r2, err := http.Get(ts.URL + "/runs/99/trace")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /runs/99/trace = %d, want 404", r2.StatusCode)
	}
}

// TestAccessLogCarriesTraceID: the slog access line for a request joins
// the trace — both in text and JSON formats — so logs correlate with
// GET /runs/{id} without extra plumbing.
func TestAccessLogCarriesTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s, err := newServer(serverConfig{seed: 7, maxInflight: 2, ledgerSize: 8}, logger)
	if err != nil {
		t.Fatal(err)
	}
	s.warmup()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, _ := postRunHeader(t, ts, "MLP", testTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d", resp.StatusCode)
	}
	var line struct {
		Msg     string `json:"msg"`
		Path    string `json:"path"`
		TraceID string `json:"trace_id"`
		Status  int    `json:"status"`
	}
	found := false
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			continue
		}
		if line.Msg == "request" && line.Path == "/run" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no /run access-log line in:\n%s", buf.String())
	}
	if line.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("access log trace_id = %q, want the caller's trace", line.TraceID)
	}
	if line.Status != http.StatusOK {
		t.Fatalf("access log status = %d, want 200", line.Status)
	}
}

// TestBuildLogger: the -log-format flag selects the slog handler, and
// unknown formats are a startup error, not a silent default.
func TestBuildLogger(t *testing.T) {
	if _, err := buildLogger(os.Stderr, "text"); err != nil {
		t.Fatalf("text: %v", err)
	}
	if _, err := buildLogger(os.Stderr, "json"); err != nil {
		t.Fatalf("json: %v", err)
	}
	if _, err := buildLogger(os.Stderr, "yaml"); err == nil {
		t.Fatal("unknown format accepted; want an error")
	}
}

// TestDebugHandlerServesPprof: the opt-in debug mux serves the pprof
// index without touching the public handler.
func TestDebugHandlerServesPprof(t *testing.T) {
	ts := httptest.NewServer(debugHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}

	// The public handler must NOT expose pprof.
	_, public := testServer(t, 1, 1)
	r2, err := http.Get(public.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode == http.StatusOK {
		t.Fatal("public handler serves /debug/pprof/; profiling must be opt-in via -debug-addr")
	}
}

// TestMetricsIncludeRuntimeFamilies: scraping camserve covers the Go
// runtime — the bridge collects on each scrape.
func TestMetricsIncludeRuntimeFamilies(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	page := scrape(t, ts.URL)
	if got := metricValue(t, page, "cambricon_go_goroutines"); got < 1 {
		t.Fatalf("cambricon_go_goroutines = %v, want >= 1", got)
	}
	if got := metricValue(t, page, "cambricon_go_mem_total_bytes"); got <= 0 {
		t.Fatalf("cambricon_go_mem_total_bytes = %v, want > 0", got)
	}
}
