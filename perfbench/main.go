// Command perfbench is the repository's end-to-end benchmark. One
// command runs one workload — two closed-loop serving mixes against a
// real camserve process, and fault campaigns run in-process — checks
// every output, and prints one JSON result line:
//
//	perfbench -camserve BIN -workload serve-light -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separately traced
// phase, plus that phase's overhead against an untraced one. See
// README.md for the workloads, metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	camserve string
	runDir   string
	outDir   string
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is what a workload run hands back: the result line's counts
// and metrics, the steadiness diagnostics printed beside them, and (when
// traced) the spans written once at the end.
type report struct {
	attempted, failed int
	metrics           metricSet
	diag              map[string]any
	spans             any
}

func newReport() *report { return &report{metrics: metricSet{}, diag: map[string]any{}} }

// count adds a phase's requests to the attempted and failed totals.
func (r *report) count(samples []sample) {
	for i := range samples {
		r.attempted++
		if !samples[i].ok {
			r.failed++
		}
	}
}

// overhead records the traced phase's cost: both phases' end-to-end
// numbers in the diagnostics, and traced minus untraced as the
// trace.overhead.* per-layer metrics.
func (r *report) overhead(untraced, traced metricSet) {
	r.diag["untraced_metrics"], r.diag["traced_metrics"] = untraced, traced
	for _, k := range []string{"ops_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_op"} {
		r.metrics.set("trace.overhead."+k, traced[k].Value-untraced[k].Value, untraced[k].Unit)
	}
}

// window records one timed window's steadiness diagnostics: host CPU
// steal over it, the spread of raw throughput across its blocks, the
// load generator's own CPU (negative when the load generator is the
// measured process itself), and per block the raw values behind the
// end-to-end metrics.
func (r *report) window(phase string, wall time.Duration, steal float64, blocks []block, loadgen time.Duration) {
	rates := make([]float64, len(blocks))
	detail := make([][6]float64, len(blocks))
	for i, b := range blocks {
		rates[i] = float64(b.ops) / b.wall.Seconds()
		detail[i] = [6]float64{rates[i], percentile(b.lat, 0.5), percentile(b.lat, 0.9),
			float64(b.cpu) / 1e6 / float64(b.ops), b.steal, b.busy}
	}
	d := map[string]any{
		"wall_s":                  wall.Seconds(),
		"host_steal_share":        steal,
		"throughput_block_spread": spread(rates),
		"block_columns":           "raw ops_per_s, latency_p50_ms, latency_p90_ms, cpu_ms_per_op, host steal share, host busy share",
		"blocks":                  detail,
	}
	if loadgen >= 0 {
		d["loadgen_cpu_share"] = loadgen.Seconds() / wall.Seconds()
	}
	r.diag[phase] = d
}

// endToEnd and perLayer are the metric catalogue of BENCHMARK.json, in
// print order. Every run prints all of one list: a per-layer metric a
// workload does not exercise reads 0 (README.md says which).
var (
	endToEnd = []metricSpec{
		{"ops_per_s", "op/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
		{"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"},
	}
	perLayer = []metricSpec{
		{layerHTTP, "ms"}, {layerHandler, "ms"}, {layerQueue, "ms"}, {layerAcquire, "ms"},
		{layerRestore, "ms"}, {layerSim, "ms"}, {layerEncode, "ms"}, {layerWAL, "ms"},
		{layerOtherSpan, "ms"},
		{"bench.restore_kib", "KiB"}, {"sim.run_share", "ratio"},
		{"sim.ns_per_cycle.MLP", "ns"}, {"sim.ns_per_cycle.HNN", "ns"},
		{"sim.ns_per_cycle.CNN", "ns"}, {"sim.ns_per_cycle.SOM", "ns"},
		{"sim.ns_per_cycle.BM", "ns"}, {"sim.ns_per_cycle.RBM", "ns"},
		{"sim.ns_per_cycle.Autoencoder", "ns"},
		{"go.gc_cycles_per_kop", "1/kop"}, {"go.gc_pause_us_per_op", "us"},
		{"bench.pool_hit_ratio", "ratio"},
		{"camserve.ready_s", "s"}, {"bench.snapshot_prepare_ms", "ms"},
		{"codegen.programs_ms", "ms"}, {"bench.prepare_checkpoints_ms", "ms"},
		{"fault.golden_ms", "ms"}, {"fault.site_ms.p50", "ms"}, {"fault.site_ms.p90", "ms"},
		{"fault.site_transient_ms", "ms"}, {"fault.site_stuck_lane_ms", "ms"},
		{"fault.ff_converged_ratio", "ratio"}, {"bench.restore_kib_per_site", "KiB"},
		{"fault.unattributed_share", "ratio"}, {"go.allocs_per_site", "count"},
		{"fault.sweep_peak_rss_mb", "MiB"},
		{"trace.overhead.ops_per_s", "op/s"}, {"trace.overhead.latency_p50_ms", "ms"},
		{"trace.overhead.latency_p90_ms", "ms"}, {"trace.overhead.cpu_ms_per_op", "ms"},
	}
)

type metricSpec struct{ name, unit string }

// workloads maps each -workload name to its run.
var workloads = map[string]func(*options) (*report, error){
	"serve-light": func(o *options) (*report, error) {
		return runServe(serveWorkload{
			mix:   []mixEntry{{"MLP", 1}, {"HNN", 1}},
			conns: 1, rate: 1900, warmup: 400, coldStarts: 7,
		}, o)
	},
	"serve-heavy": func(o *options) (*report, error) {
		return runServe(serveWorkload{
			mix:   []mixEntry{{"CNN", 1}, {"SOM", 1}, {"BM", 1}, {"RBM", 1}, {"Autoencoder", 1}},
			conns: 2, rate: 400, warmup: 40, coldStarts: 7,
		}, o)
	},
	"campaign": func(o *options) (*report, error) {
		return runCampaign(campaignWorkload{sites: 100, rate: 1600, warmup: 2, setups: 3}, o)
	},
}

func main() {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-light, serve-heavy or campaign")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (request order and campaign seeds)")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal timed seconds; sizes the fixed work of a run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced phase and prints per-layer metrics")
	flag.StringVar(&o.camserve, "camserve", "", "camserve binary (serve workloads)")
	flag.StringVar(&o.outDir, "out", "", "directory for logs, WAL directories and span files")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	fn, ok := workloads[o.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q", o.workload)
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be positive")
	case o.outDir == "":
		return fmt.Errorf("-out is required")
	}
	tag := fmt.Sprintf("%s-seed%d-trace%t", o.workload, o.seed, o.trace)
	o.runDir = filepath.Join(o.outDir, "run", fmt.Sprintf("%s-%d", tag, os.Getpid()))
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.runDir)
	rep, err := fn(o)
	if err != nil {
		return err
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	out := metricSet{}
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		switch {
		case ok && m.Unit != s.unit:
			return fmt.Errorf("metric %s: unit %q, catalogue says %q", s.name, m.Unit, s.unit)
		case !ok && !o.trace:
			return fmt.Errorf("workload did not measure %s", s.name)
		case !ok:
			m = metric{0, s.unit}
		}
		out[s.name] = m
	}
	for name := range rep.metrics {
		if _, ok := out[name]; !ok || !validMetricName(name) {
			return fmt.Errorf("metric %q is not in the catalogue", name)
		}
	}
	if rep.spans != nil {
		path := filepath.Join(o.outDir, "traces", tag+".json")
		if err := writeJSON(path, rep.spans); err != nil {
			return err
		}
		rep.diag["spans_file"] = path
	}
	diag, _ := json.Marshal(rep.diag)
	fmt.Printf("diagnostics %s\n", diag)
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeJSON writes v to path in one go, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
