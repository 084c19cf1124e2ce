package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the text exposition format byte for byte:
// sorted families, sorted series, HELP/TYPE comments, cumulative
// histogram buckets with _sum and _count, label escaping.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("zz_last_total", "sorted after the others").Add(3)
	c := r.Counter("app_requests_total", "requests served", L("handler", "run"), L("code", "200"))
	c.Inc()
	c.Inc()
	r.Counter("app_requests_total", "requests served", L("handler", "run"), L("code", "503")).Inc()
	r.Gauge("app_inflight", "requests in flight").Set(2)
	r.Gauge("app_weird", "label escaping", L("path", `a"b\c`)).Set(-1)
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_inflight requests in flight
# TYPE app_inflight gauge
app_inflight 2
# HELP app_latency_seconds request latency
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="10"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 99.55
app_latency_seconds_count 3
# HELP app_requests_total requests served
# TYPE app_requests_total counter
app_requests_total{code="200",handler="run"} 2
app_requests_total{code="503",handler="run"} 1
# HELP app_weird label escaping
# TYPE app_weird gauge
app_weird{path="a\"b\\c"} -1
# HELP zz_last_total sorted after the others
# TYPE zz_last_total counter
zz_last_total 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSameSeriesIsShared pins the get-or-create contract: repeated
// registration (including label reordering) returns the same instance.
func TestSameSeriesIsShared(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "x", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("equivalent label sets produced distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter did not share state")
	}
}

// TestKindMismatchDetaches pins the no-panic contract: re-registering a
// name under a different kind hands back a live but detached metric and
// leaves the original family intact.
func TestKindMismatchDetaches(t *testing.T) {
	r := New()
	r.Counter("dual_total", "first registration wins").Inc()
	g := r.Gauge("dual_total", "conflicting kind")
	g.Set(42) // must not panic, must not leak into the exposition
	h := r.Histogram("dual_total", "conflicting kind", []float64{1})
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dual_total 1\n") {
		t.Fatalf("counter lost after kind mismatch:\n%s", out)
	}
	if strings.Contains(out, "42") || strings.Contains(out, "gauge") {
		t.Fatalf("mismatched kind leaked into exposition:\n%s", out)
	}
}

// TestNilSafety pins the nil-registry contract instrumented code relies
// on: every lookup and every metric method is a safe no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "")
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRegistryUse hammers registration, updates and encoding
// from many goroutines; the race detector is the assertion.
func TestConcurrentRegistryUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"m_a_total", "m_b_total", "m_c_total"}
			for i := 0; i < 500; i++ {
				c := r.Counter(names[i%len(names)], "c", L("w", "shared"))
				c.Inc()
				r.Gauge("m_gauge", "g").Add(1)
				r.Histogram("m_hist", "h", []float64{1, 10, 100}).Observe(float64(i))
				if i%100 == 0 {
					if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
						t.Error(err)
					}
				}
			}
			_ = w
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, n := range []string{"m_a_total", "m_b_total", "m_c_total"} {
		total += r.Counter(n, "c", L("w", "shared")).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost increments: total = %d, want %d", total, 8*500)
	}
	if got := r.Histogram("m_hist", "h", []float64{1, 10, 100}).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

// TestExpBuckets pins the helper's shape and its degenerate cases.
func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if ExpBuckets(0, 10, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 10, 0) != nil {
		t.Fatal("degenerate ExpBuckets should be nil")
	}
}

// BenchmarkNilCounterInc pins the unattached instrumentation path at
// 0 allocs/op: incrementing through a nil counter must cost a nil check
// and nothing else.
func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(3)
		g.Add(1)
		h.Observe(1)
	}
}

// TestNilCounterZeroAllocs pins the benchmark's claim as a hard test.
func TestNilCounterZeroAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("nil-metric ops allocated %v allocs/op, want 0", allocs)
	}
}

// TestLabelValueEscaping pins the exposition-format escaping of label
// values character by character: backslash, newline and double quote
// must come out as \\, \n and \" (and nothing else may be touched).
func TestLabelValueEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{"new\nline", `new\nline`},
		{`dou"ble`, `dou\"ble`},
		{"all\\three\"here\n", `all\\three\"here\n`},
		{"tab\tand ünïcode stay", "tab\tand ünïcode stay"},
	}
	for _, c := range cases {
		r := New()
		r.Counter("esc_total", "h", L("v", c.in)).Inc()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		wantLine := `esc_total{v="` + c.want + `"} 1`
		if !strings.Contains(buf.String(), wantLine+"\n") {
			t.Fatalf("escaping %q: page lacks %q:\n%s", c.in, wantLine, buf.String())
		}
	}
}

// TestHelpEscaping pins HELP-comment escaping: backslash and newline are
// escaped, double quotes pass through verbatim (per the format spec).
func TestHelpEscaping(t *testing.T) {
	r := New()
	r.Counter("help_total", "line\nbreak \\ and \"quotes\"").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP help_total line\nbreak \\ and "quotes"`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Fatalf("help escaping: page lacks %q:\n%s", want, buf.String())
	}
}

// TestExpBucketsEdgeCases pins every degenerate input to nil (callers
// registering with nil buckets get the bare +Inf histogram) and the
// well-formed shape to exact powers.
func TestExpBucketsEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name          string
		start, factor float64
		n             int
	}{
		{"n=0", 1, 2, 0},
		{"n<0", 1, 2, -3},
		{"factor=1", 1, 1, 4},
		{"factor<1", 1, 0.5, 4},
		{"start=0", 0, 2, 4},
		{"start<0", -1, 2, 4},
	} {
		if got := ExpBuckets(c.start, c.factor, c.n); got != nil {
			t.Fatalf("ExpBuckets(%s) = %v, want nil", c.name, got)
		}
	}
	got := ExpBuckets(0.25, 2, 5)
	want := []float64{0.25, 0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A degenerate-bucket histogram still observes into +Inf and totals.
	r := New()
	h := r.Histogram("degen_seconds", "", ExpBuckets(1, 1, 0))
	h.Observe(3)
	if h.Count() != 1 || h.Sum() != 3 {
		t.Fatalf("bare +Inf histogram count=%d sum=%v, want 1 and 3", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if page := buf.String(); strings.Count(page, "degen_seconds_bucket") != 1 ||
		!strings.Contains(page, `degen_seconds_bucket{le="+Inf"} 1`+"\n") {
		t.Fatalf("bare histogram page, want only the +Inf bucket:\n%s", page)
	}
	// Non-finite bounds are dropped at registration, not at observe time.
	h2 := New().Histogram("inf_seconds", "", []float64{1, math.Inf(1), math.NaN(), 2})
	h2.Observe(1.5)
	if h2.Count() != 1 {
		t.Fatalf("histogram with non-finite bounds lost an observation")
	}
}
