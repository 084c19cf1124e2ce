package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"cambricon/internal/workload"
)

// FuzzRunBody posts arbitrary bytes as a POST /run body, the one request
// body the daemon decodes from untrusted clients, through handleRun on an
// httptest server. Whatever the body, nothing panics and the answer is
// 200, 400 or 413. Every other answer is a JSON error object. A 200 names
// one of the ten Table III programs, and its cycles and instructions are
// that program's Suite.Stats. One run slot with a wait queue keeps
// admission from shedding the fuzzer's back-to-back requests.
func FuzzRunBody(f *testing.F) {
	for _, name := range workload.Names() {
		body, err := json.Marshal(runRequest{Benchmark: name})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		`{}`,
		`{"benchmark":""}`,
		`{"benchmark":"NoSuchNet"}`,
		`{"benchmark":"Logistic"}`,
		`{"benchmark":"MLP"} trailing data`,
		`{"benchmark":"MLP"}{"benchmark":"CNN"}`,
		"{\"benchmark\":\"\xff\xfe\"}",
		"\xff\xfe\xfd",
		`{"benchmark":` + strings.Repeat("[", 2000) + strings.Repeat("]", 2000) + `}`,
		`{"benchmark":"` + strings.Repeat("x", maxRunBody) + `"}`,
		``,
		`null`,
		`{"benchmark":7}`,
	} {
		f.Add([]byte(body))
	}
	s, ts := testServerCfg(f, serverConfig{seed: 7, maxInflight: 1, queueDepth: 4, ledgerSize: 8})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var row runRecord
			if err := json.Unmarshal(raw, &row); err != nil {
				t.Fatalf("200 body %q is not a run record: %v", raw, err)
			}
			if !slices.Contains(workload.Names(), row.Benchmark) {
				t.Fatalf("200 for %q, not one of the ten programs", row.Benchmark)
			}
			st, err := s.suite.Stats(row.Benchmark)
			if err != nil {
				t.Fatal(err)
			}
			if row.Cycles != st.Cycles || row.Instructions != st.Instructions {
				t.Fatalf("%s ran %d cycles, %d instructions; Suite.Stats has %d, %d",
					row.Benchmark, row.Cycles, row.Instructions, st.Cycles, st.Instructions)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var e map[string]any
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%d body %q is not JSON: %v", resp.StatusCode, raw, err)
			}
			if msg, ok := e["error"].(string); !ok || msg == "" || len(e) != 1 {
				t.Fatalf("%d body %q, want one non-empty \"error\" string", resp.StatusCode, raw)
			}
		default:
			t.Fatalf("body %q: status %d, want 200, 400 or 413", body, resp.StatusCode)
		}
	})
}
