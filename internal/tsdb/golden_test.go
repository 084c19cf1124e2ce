package tsdb

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cambricon/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenStore builds the fixed scenario the golden file renders — a
// counter, a gauge and a histogram sampled through four passes of an
// injected clock — and evaluates one latency rule over it.
func goldenStore(t *testing.T) (*Store, []Alert) {
	t.Helper()
	reg := metrics.New()
	c := reg.Counter("cambricon_serve_requests_total", "requests", metrics.L("code", "200"))
	g := reg.Gauge("cambricon_serve_queue_waiting", "waiting")
	h := reg.Histogram("cambricon_serve_queue_wait_seconds", "queue wait", []float64{0.001, 0.01, 0.1})
	s, clk := newTestStore(t, reg, 16)

	clk.sample(s, time.Second) // baseline
	for pass := 1; pass <= 4; pass++ {
		c.Add(int64(pass * 2))
		g.Set(int64(pass % 3))
		for i := 0; i < pass; i++ {
			h.Observe(0.005 * float64(pass))
		}
		clk.sample(s, time.Second)
	}

	rules := []Rule{{
		Name: "wait", Kind: KindLatency,
		Metric:    "cambricon_serve_queue_wait_seconds",
		Threshold: 0.01, Budget: 0.01,
		Fast: 2 * time.Second, Slow: time.Minute,
	}}
	return s, Eval(s, rules)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/tsdb -run TestGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden (re-run with -update if intended)\ngot:\n%s", name, got)
	}
}

// TestGoldenVars pins /vars byte-for-byte under the injected clock.
func TestGoldenVars(t *testing.T) {
	s, _ := goldenStore(t)
	var buf bytes.Buffer
	if err := s.WriteVars(&buf, time.Minute); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "vars.golden.json", buf.Bytes())

	// Render twice: identical bytes (no map-order nondeterminism).
	var buf2 bytes.Buffer
	if err := s.WriteVars(&buf2, time.Minute); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two /vars renders of the same state differ")
	}
}
