package fault

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cambricon/internal/metrics"
)

// scriptedTarget deterministically maps fault sites to outcomes so the
// campaign machinery can be tested without a simulator.
type scriptedTarget struct {
	name string
	runs atomic.Int64
}

func (t *scriptedTarget) Name() string { return t.name }

func (t *scriptedTarget) Run(inj Injector, maxCycles int64) Observation {
	t.runs.Add(1)
	golden := Observation{
		Cycles:       1000,
		Instructions: 100,
		Output:       []byte{0xAA, 0xBB},
		Geometry: Geometry{
			Instructions:    100,
			GPRs:            64,
			VectorSpadWords: 512,
			MatrixSpadWords: 2048,
			VectorLanes:     32,
			MatrixLanes:     64,
		},
	}
	if inj == nil {
		return golden
	}
	inj.BeginRun()
	f := inj.(*Single).Fault()
	obs := Observation{Cycles: 1200, Instructions: 100, Output: []byte{0xAA, 0xBB}}
	switch f.Model {
	case ModelFetchBit:
		obs.Err = errors.New("sim: undecodable instruction")
	case ModelGPRBit:
		obs.Hung = true
		obs.Err = errors.New("sim: watchdog")
	case ModelSpadBit:
		obs.Output = []byte{0xAA, 0xFF} // silent corruption
	case ModelDMABit:
		obs.Crashed = true
	}
	// ModelStuckLane stays masked.
	return obs
}

func TestCampaignClassifiesAndTallies(t *testing.T) {
	tgt := &scriptedTarget{name: "fake"}
	c := &Campaign{Seed: 7, Sites: 10, Workers: 4}
	rep, err := c.Run(context.Background(), []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Benchmarks) != 1 || len(rep.Benchmarks[0].Runs) != 10 {
		t.Fatalf("report shape: %+v", rep)
	}
	br := rep.Benchmarks[0]
	if br.GoldenCycles != 1000 || br.GoldenInstructions != 100 {
		t.Fatalf("golden stats: %+v", br)
	}
	// 10 sites round-robin over 5 models = 2 each.
	want := Tally{Masked: 2, SDC: 2, Detected: 2, Hang: 2, Crash: 2}
	if br.Tally != want {
		t.Fatalf("tally %+v want %+v", br.Tally, want)
	}
	if rep.Total != want {
		t.Fatalf("total %+v", rep.Total)
	}
	if rep.Total.Sum() != 10 {
		t.Fatalf("sum %d", rep.Total.Sum())
	}
	// 1 golden + 10 faulted runs.
	if got := tgt.runs.Load(); got != 11 {
		t.Fatalf("run count %d", got)
	}
	// Every record's outcome matches its own classification inputs.
	for _, rec := range br.Runs {
		if rec.Outcome == OutcomeDetected && rec.Detail == "" {
			t.Fatalf("detected run missing detail: %+v", rec)
		}
	}
	if !strings.Contains(rep.Render(), "fake") {
		t.Fatal("Render missing benchmark name")
	}
}

func TestCampaignReportByteIdentical(t *testing.T) {
	run := func() []byte {
		tgt := &scriptedTarget{name: "fake"}
		c := &Campaign{Seed: 99, Sites: 15, Workers: 8}
		rep, err := c.Run(context.Background(), []Target{tgt})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different reports")
	}
	tgt := &scriptedTarget{name: "fake"}
	rep, err := (&Campaign{Seed: 100, Sites: 15}).Run(context.Background(), []Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, buf.Bytes()) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestCampaignTargetFanOutByteIdentical pins the outer per-target pool:
// sweeping many targets serially (TargetWorkers=1) and concurrently must
// produce byte-identical cambricon-fault/v1 reports, and the metrics
// attached to the fan-out run must agree with the serial tallies.
func TestCampaignTargetFanOutByteIdentical(t *testing.T) {
	names := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	run := func(outer int, reg *metrics.Registry) []byte {
		targets := make([]Target, len(names))
		for i, n := range names {
			targets[i] = &scriptedTarget{name: n}
		}
		c := &Campaign{Seed: 42, Sites: 12, Workers: 3, TargetWorkers: outer, Metrics: reg}
		rep, err := c.Run(context.Background(), targets)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1, nil)
	reg := metrics.New()
	fanned := run(4, reg)
	if !bytes.Equal(serial, fanned) {
		t.Fatal("target fan-out changed the report bytes")
	}
	if got := reg.Counter(MetricFaultTargets, "").Value(); got != uint64(len(names)) {
		t.Fatalf("%s = %d, want %d", MetricFaultTargets, got, len(names))
	}
	var classified uint64
	for i := 0; i < NumOutcomes; i++ {
		classified += reg.Counter(MetricFaultRuns, "",
			metrics.L("outcome", Outcome(i).String())).Value()
	}
	if want := uint64(len(names) * 12); classified != want {
		t.Fatalf("classified runs = %d, want %d", classified, want)
	}
}

func TestCampaignCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tgt := &scriptedTarget{name: "fake"}
	_, err := (&Campaign{Seed: 1, Sites: 5}).Run(ctx, []Target{tgt})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type crashingGolden struct{}

func (crashingGolden) Name() string { return "bad" }
func (crashingGolden) Run(inj Injector, maxCycles int64) Observation {
	return Observation{Err: errors.New("broken program"), Crashed: inj == nil}
}

func TestCampaignGoldenFailureIsError(t *testing.T) {
	_, err := (&Campaign{Seed: 1, Sites: 3}).Run(context.Background(), []Target{crashingGolden{}})
	if err == nil || !strings.Contains(err.Error(), "golden run") {
		t.Fatalf("err = %v", err)
	}
}

// panickyGolden crashes the golden run with no error attached — the
// shape a recovered panic without detail produces. The campaign must
// still return a real error (and not wrap a nil one).
type panickyGolden struct{}

func (panickyGolden) Name() string                    { return "panicky" }
func (panickyGolden) Run(Injector, int64) Observation { return Observation{Crashed: true} }

func TestCampaignGoldenCrashWithoutErr(t *testing.T) {
	_, err := (&Campaign{Seed: 1, Sites: 3}).Run(context.Background(), []Target{panickyGolden{}})
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v", err)
	}
	if strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("golden-crash error wraps nil: %v", err)
	}
}

// bufferedScripted implements BufferedTarget over the scripted target,
// copying outputs into the campaign-provided buffer when it fits.
type bufferedScripted struct {
	scriptedTarget
	bufRuns atomic.Int64
}

func (t *bufferedScripted) RunBuf(inj Injector, maxCycles int64, buf []byte) Observation {
	t.bufRuns.Add(1)
	obs := t.Run(inj, maxCycles)
	if obs.Output != nil && cap(buf) >= len(obs.Output) {
		out := buf[:len(obs.Output)]
		copy(out, obs.Output)
		obs.Output = out
	}
	return obs
}

// TestCampaignUsesBufferedTarget pins that the campaign routes faulted
// runs through RunBuf when the target supports it — and that the report
// is byte-identical to the plain Run path.
func TestCampaignUsesBufferedTarget(t *testing.T) {
	c := &Campaign{Seed: 11, Sites: 20, Workers: 2}
	bt := &bufferedScripted{scriptedTarget: scriptedTarget{name: "scripted"}}
	repBuf, err := c.Run(context.Background(), []Target{bt})
	if err != nil {
		t.Fatal(err)
	}
	if got := bt.bufRuns.Load(); got != 20 {
		t.Fatalf("RunBuf called %d times, want 20 (one per site)", got)
	}
	repPlain, err := c.Run(context.Background(), []Target{&scriptedTarget{name: "scripted"}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := repBuf.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := repPlain.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("buffered and plain campaign reports differ")
	}
}

// TestCampaignDispatchOrderInvisible pins that the At-sorted dispatch
// order runTarget uses is invisible in the report: record i carries
// exactly site i of the seeded generation order (not the sorted order),
// and the marshaled report is byte-identical across worker counts. The
// guard assertion first proves the generated sites are not already
// At-sorted, so the test would catch a dispatch order leaking through.
func TestCampaignDispatchOrderInvisible(t *testing.T) {
	const seed, n = 5, 25
	tgt := &scriptedTarget{name: "fake"}
	golden := tgt.Run(nil, 0)
	sites := SitesOf(BenchSeed(seed, tgt.name), n, golden.Geometry, nil)
	sorted := true
	for i := 1; i < len(sites); i++ {
		if sites[i].At < sites[i-1].At {
			sorted = false
			break
		}
	}
	if sorted {
		t.Fatal("generated sites are already At-sorted; pick a different seed to make this test meaningful")
	}

	render := func(workers int) (*Report, []byte) {
		t.Helper()
		c := &Campaign{Seed: seed, Sites: n, Workers: workers}
		rep, err := c.Run(context.Background(), []Target{&scriptedTarget{name: "fake"}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	repA, bytesA := render(1)
	_, bytesB := render(8)
	if !bytes.Equal(bytesA, bytesB) {
		t.Fatal("report bytes differ across worker counts")
	}
	for i, rec := range repA.Benchmarks[0].Runs {
		if rec.Fault != sites[i] {
			t.Fatalf("run %d records site %+v, want generation-order site %+v", i, rec.Fault, sites[i])
		}
	}
}

// cancellingTarget fast-forwards the scripted target's sites. It records
// the At of every site RunSiteBuf is handed and, when cancel is set,
// calls it from inside its k-th site.
type cancellingTarget struct {
	scriptedTarget
	k      int64
	cancel context.CancelFunc
	sites  atomic.Int64

	mu  sync.Mutex
	ats []int64
}

func (t *cancellingTarget) RunBuf(inj Injector, maxCycles int64, _ []byte) Observation {
	return t.Run(inj, maxCycles)
}

func (t *cancellingTarget) PrepareCheckpoints(int) error { return nil }

func (t *cancellingTarget) RunSiteBuf(f Fault, maxCycles int64, _ []byte) Observation {
	t.mu.Lock()
	t.ats = append(t.ats, f.At)
	t.mu.Unlock()
	if t.sites.Add(1) == t.k && t.cancel != nil {
		t.cancel()
	}
	return t.Run(New(f), maxCycles)
}

// TestCampaignCancelledAfterKSites cancels a campaign from inside its
// k-th site, for every k, on one and on two workers. Run must return
// context.Canceled and leave no goroutine behind. The target's own sweep
// must return the error exactly when a site was left unrun: for k below
// the site count, and not for k equal to it, where its report must equal
// an uncancelled sweep's.
func TestCampaignCancelledAfterKSites(t *testing.T) {
	const n = 10
	full, err := (&Campaign{Seed: 3, Sites: n, Workers: 1}).Run(context.Background(), []Target{&scriptedTarget{name: "fake"}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		for k := int64(1); k <= n; k++ {
			c := &Campaign{Seed: 3, Sites: n, Workers: workers, Checkpoints: 8}
			ctx, cancel := context.WithCancel(context.Background())
			tgt := &cancellingTarget{scriptedTarget: scriptedTarget{name: "fake"}, k: k, cancel: cancel}
			if _, err := c.Run(ctx, []Target{tgt}); !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d, cancelled in site %d: Run = %v, want context.Canceled", workers, k, err)
			}
			cancel()
			if workers > 1 {
				continue
			}
			ctx, cancel = context.WithCancel(context.Background())
			tgt = &cancellingTarget{scriptedTarget: scriptedTarget{name: "fake"}, k: k, cancel: cancel}
			br, err := c.runTarget(ctx, tgt, 1)
			cancel()
			switch {
			case k < n && !errors.Is(err, context.Canceled):
				t.Errorf("cancelled in site %d of %d: sweep = %v, want context.Canceled", k, n, err)
			case k == n && err != nil:
				t.Errorf("cancelled in the last site: sweep = %v, want every site's report", err)
			case k == n && !reflect.DeepEqual(br.Runs, full.Benchmarks[0].Runs):
				t.Errorf("cancelled in the last site: runs %+v, want %+v", br.Runs, full.Benchmarks[0].Runs)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after cancelled campaigns", before, after)
	}
}

// TestCampaignOneWorkerClaimsAscendingAt pins the claim order a
// fast-forwarding target relies on: one worker hands RunSiteBuf every
// site, with non-decreasing At.
func TestCampaignOneWorkerClaimsAscendingAt(t *testing.T) {
	const n = 40
	tgt := &cancellingTarget{scriptedTarget: scriptedTarget{name: "fake"}}
	if _, err := (&Campaign{Seed: 5, Sites: n, Workers: 1, Checkpoints: 8}).Run(context.Background(), []Target{tgt}); err != nil {
		t.Fatal(err)
	}
	if len(tgt.ats) != n {
		t.Fatalf("RunSiteBuf saw %d sites, want %d", len(tgt.ats), n)
	}
	for i := 1; i < n; i++ {
		if tgt.ats[i] < tgt.ats[i-1] {
			t.Fatalf("site %d has At %d after At %d: %v", i, tgt.ats[i], tgt.ats[i-1], tgt.ats)
		}
	}
}
