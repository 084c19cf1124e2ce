package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"cambricon/internal/codegen"
)

func TestPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false}, {0, 0.9, false},
	} {
		if err := checkTail(tc.n, tc.q); (err == nil) != tc.ok {
			t.Errorf("checkTail(%d, %g) = %v, want ok=%t", tc.n, tc.q, err, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	p90 := percentile(xs, 0.9)
	beyond := 0
	for _, x := range xs {
		if x > p90 {
			beyond++
		}
	}
	if p90 != 90 || beyond != 10 || tailBeyond(len(xs), 0.9) != 10 {
		t.Errorf("p90 of 1..100 = %g with %d beyond, want 90 with 10", p90, beyond)
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"request", -1, 0, 100},
		{"a", 0, 10, 30},
		{"b", 0, 25, 50},  // overlaps a: the union 10..50 is covered once
		{"c", 2, 30, 40},  // nested in b
		{"d", 0, 90, 120}, // runs past the root: clipped at 100
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 15, 10, 30}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldRequestSumsToClient(t *testing.T) {
	spans := []span{
		{"request", -1, 0, 1000},
		{"wal.append", 0, 10, 50},
		{"queue.wait", 0, 50, 60},
		{"pool.acquire", 0, 60, 70},
		{"snapshot.restore", 0, 70, 170},
		{"sim.run", 0, 170, 700},
		{"wal.append", 0, 700, 720},
		{"encode.json", 0, 720, 800},
		{"wal.append", 0, 800, 850},
		{"decode.lookup", 0, 850, 900},
	}
	got, err := foldRequest(spans, 1300)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		layerHTTP: 300, layerHandler: 1000 - 900 + 10, layerWAL: 40 + 20 + 50,
		layerQueue: 10, layerAcquire: 10, layerRestore: 100, layerSim: 530,
		layerEncode: 80, layerOtherSpan: 50,
	}
	var sum int64
	for _, l := range serveLayers {
		sum += got[l]
		if got[l] != want[l] {
			t.Errorf("%s = %d, want %d", l, got[l], want[l])
		}
	}
	if sum != 1300 {
		t.Errorf("layers sum to %d, want the client's 1300", sum)
	}
	if _, err := foldRequest(spans, 999); err == nil {
		t.Error("a root span longer than the client latency folded without error")
	}
	if _, err := foldRequest(spans[1:], 1300); err == nil {
		t.Error("a bundle without a root folded without error")
	}
}

func TestScheduleDeterminism(t *testing.T) {
	mix := []mixEntry{{"CNN", 1}, {"SOM", 2}, {"BM", 1}}
	a := schedule(mix, 50, 7)
	b := schedule(mix, 50, 7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different orders")
	}
	if len(a) != 200 {
		t.Fatalf("len = %d, want 200", len(a))
	}
	sortedCopy := func(xs []string) []string {
		c := slices.Clone(xs)
		slices.Sort(c)
		return c
	}
	base := sortedCopy(a)
	differs := false
	for seed := uint64(1); seed < 20; seed++ {
		c := schedule(mix, 50, seed)
		if !slices.Equal(sortedCopy(c), base) {
			t.Fatalf("seed %d changed the multiset", seed)
		}
		differs = differs || !slices.Equal(c, a)
	}
	if !differs {
		t.Error("no seed changed the order")
	}
}

func TestMetricNames(t *testing.T) {
	if got := metricName("sim.ns_per_cycle", "Sparse Autoencoder"); got != "sim.ns_per_cycle.Sparse_Autoencoder" {
		t.Errorf("metricName = %q", got)
	}
	for _, g := range codegen.Generators() {
		if name := metricName("sim.ns_per_cycle", g.Name); !validMetricName(name) {
			t.Errorf("program %q maps to invalid metric name %q", g.Name, name)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(slices.Clone(endToEnd), perLayer...) {
		if !validMetricName(s.name) || seen[s.name] {
			t.Errorf("catalogue name %q invalid or repeated", s.name)
		}
		seen[s.name] = true
	}
	for _, bad := range []string{"", "Sparse Autoencoder", "_x", ".x", strings.Repeat("a", 65), "a/b"} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// TestWrongDigestIsAFailedOp serves a row whose digest differs from the
// oracle's: the request must count as attempted and failed.
func TestWrongDigestIsAFailedOp(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(runRow{ID: 1, Status: "ok", Cycles: 10, Instructions: 5, StatsDigest: "aaaa"})
	}))
	defer srv.Close()
	d := &daemon{base: srv.URL, client: srv.Client(), bodies: map[string][]byte{"MLP": []byte(`{}`)}}
	order := []string{"MLP", "MLP"}
	for _, tc := range []struct {
		digest string
		failed int
	}{{"aaaa", 0}, {"bbbb", 2}} {
		rep := newReport()
		samples, _ := d.phase(order, 1, map[string]expectation{"MLP": {10, 5, tc.digest}}, false, 1)
		rep.count(samples)
		if rep.attempted != 2 || rep.failed != tc.failed {
			t.Errorf("expected digest %s: attempted %d failed %d, want 2 and %d",
				tc.digest, rep.attempted, rep.failed, tc.failed)
		}
	}
}

func TestBlockMetricsMediansOnUnstolenTime(t *testing.T) {
	lat := func(base float64) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = base + float64(i)/100 // p50 = base+0.49, p90 = base+0.89
		}
		return xs
	}
	blocks := []block{
		{ops: 100, wall: time.Second, cpu: 50 * time.Millisecond, lat: lat(1)},
		{ops: 100, wall: 2 * time.Second, cpu: 60 * time.Millisecond, lat: lat(2), steal: 0.25, busy: 0.5},
		{ops: 100, wall: time.Second, cpu: 40 * time.Millisecond, lat: lat(3)},
	}
	m, err := blockMetrics(blocks)
	if err != nil {
		t.Fatal(err)
	}
	// The stolen block ran half its wanted time: 100 ops over 1 s of
	// unstolen time, p90 2.89 ms halved.
	for name, want := range map[string]float64{
		"ops_per_s": 100, "latency_p50_ms": 2.49, "latency_p90_ms": 1.89, "cpu_ms_per_op": 0.5,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	blocks[0].lat = blocks[0].lat[:99]
	if _, err := blockMetrics(blocks); err == nil {
		t.Error("a block with 99 latencies reported a p90")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric lists this program
// prints in step with the repository's BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		list []metricSpec
		json []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(tc.list) != len(tc.json) {
			t.Fatalf("catalogue has %d metrics, BENCHMARK.json %d", len(tc.list), len(tc.json))
		}
		for i, s := range tc.list {
			if s.name != tc.json[i].Name || s.unit != tc.json[i].Unit {
				t.Errorf("metric %d: catalogue %s (%s), BENCHMARK.json %s (%s)",
					i, s.name, s.unit, tc.json[i].Name, tc.json[i].Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
