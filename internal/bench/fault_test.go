package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cambricon/internal/fault"
)

// mlpTarget returns the MLP benchmark's fault target from a fresh
// suite (the smallest Table III program, so campaigns stay fast).
func mlpTarget(t *testing.T) fault.Target {
	t.Helper()
	targets, err := NewSuite(7).FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets {
		if tgt.Name() == "MLP" {
			return tgt
		}
	}
	t.Fatal("no MLP target")
	return nil
}

func TestFaultTargetGoldenRun(t *testing.T) {
	tgt := mlpTarget(t)
	obs := tgt.Run(nil, 0)
	if obs.Err != nil || obs.Crashed || obs.Hung {
		t.Fatalf("golden run failed: %+v", obs)
	}
	if obs.Cycles == 0 || obs.Instructions == 0 || len(obs.Output) == 0 {
		t.Fatalf("golden run incomplete: %+v", obs)
	}
	g := obs.Geometry
	if g.Instructions != obs.Instructions || g.GPRs == 0 ||
		g.VectorSpadWords == 0 || g.MatrixSpadWords == 0 ||
		g.VectorLanes == 0 || g.MatrixLanes == 0 {
		t.Errorf("geometry not filled: %+v", g)
	}
	// Repeatable: two golden runs are byte-identical.
	again := tgt.Run(nil, 0)
	if again.Cycles != obs.Cycles || !bytes.Equal(again.Output, obs.Output) {
		t.Error("golden run is not repeatable")
	}
}

func TestFaultTargetHangsOnTinyBudget(t *testing.T) {
	tgt := mlpTarget(t)
	obs := tgt.Run(nil, 3)
	if !obs.Hung {
		t.Fatalf("3-cycle budget did not hang: %+v", obs)
	}
	if obs.Err == nil || !strings.Contains(obs.Err.Error(), "watchdog") {
		t.Errorf("hang carries no watchdog diagnostic: %v", obs.Err)
	}
}

// TestCampaignByteIdenticalReports is the campaign determinism
// acceptance criterion: same seed, worker counts 1 and 4, byte-for-byte
// identical JSON reports; a different seed produces a different report.
func TestCampaignByteIdenticalReports(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	run := func(seed uint64, workers int) []byte {
		t.Helper()
		targets, err := NewSuite(7).FaultTargets()
		if err != nil {
			t.Fatal(err)
		}
		c := fault.Campaign{Seed: seed, Sites: 10, Workers: workers}
		rep, err := c.Run(context.Background(), targets[:2])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := run(42, 1)
	b := run(42, 4)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different worker counts: reports differ")
	}
	if bytes.Equal(a, run(43, 4)) {
		t.Error("different seeds produced identical reports")
	}
	if !bytes.Contains(a, []byte(fault.Schema)) {
		t.Errorf("report does not declare schema %q", fault.Schema)
	}
}

// TestCampaignCancellationNoLeak cancels a campaign mid-flight and
// checks both the partial-result contract and that no worker goroutine
// outlives the call.
func TestCampaignCancellationNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	targets, err := NewSuite(7).FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := fault.Campaign{Seed: 42, Sites: 4, Workers: 2}
	if _, err := c.Run(ctx, targets[:1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	// Give any leaked workers a moment to show up, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after cancelled campaign", before, after)
	}
}

// TestRunAllCancelledMidRunPartialResults cancels RunAll after the
// first benchmark completes: the returned slice must still carry the
// completed results, the error must be the context's, and no worker
// may leak.
func TestRunAllCancelledMidRunPartialResults(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSuite(7)
	ctx, cancel := context.WithCancel(context.Background())
	// Warm one benchmark, then cancel: dispatching stops but the
	// completed entry stays visible in the results.
	if _, err := s.Stats("MLP"); err != nil {
		t.Fatal(err)
	}
	cancel()
	results, err := s.RunAll(ctx, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll = %v, want context.Canceled", err)
	}
	if len(results) == 0 {
		t.Fatal("cancelled RunAll returned no result slots")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d after cancelled RunAll", before, after)
	}
}

// TestStatsCtxCancellationNotCached checks the singleflight retry
// contract: a cancelled StatsCtx run is not poisoned into the cache —
// the next call with a live context succeeds.
func TestStatsCtxCancellationNotCached(t *testing.T) {
	s := NewSuite(7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.StatsCtx(ctx, "MLP"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled StatsCtx = %v, want context.Canceled", err)
	}
	if _, err := s.StatsCtx(context.Background(), "MLP"); err != nil {
		t.Fatalf("retry after cancellation failed: %v", err)
	}
}

// panickyTarget crashes on every non-golden run; the campaign must
// classify those as crashes rather than dying.
type panickyTarget struct{ inner fault.Target }

func (p *panickyTarget) Name() string { return p.inner.Name() }
func (p *panickyTarget) Run(inj fault.Injector, maxCycles int64) fault.Observation {
	obs := p.inner.Run(nil, maxCycles)
	if inj != nil {
		obs.Crashed = true
		obs.Err = errors.New("simulated crash")
	}
	return obs
}

func TestCampaignClassifiesCrashes(t *testing.T) {
	tgt := &panickyTarget{inner: mlpTarget(t)}
	c := fault.Campaign{Seed: 1, Sites: 5, Workers: 2}
	rep, err := c.Run(context.Background(), []fault.Target{tgt})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Total.Crash; got != 5 {
		t.Errorf("crash tally = %d, want 5\n%s", got, rep.Render())
	}
}

// TestCorruptLengthSiteAllocatesLittle pins a campaign one of whose
// sites flips bit 29 of the length register an RV reads, so the RV asks
// for 2^29 + 500 elements (1 GiB). The run must fail on the scratchpad
// range check before its result buffer is sized: the whole campaign
// stays far below the 1 GiB that one buffer used to take. Its report is
// pinned by digest; the outputs it classifies against are all of RBM's
// declared regions (codegen.Program.Output).
func TestCorruptLengthSiteAllocatesLittle(t *testing.T) {
	s := NewSuite(7)
	if _, err := s.FaultTargets(); err != nil { // generate programs outside the measurement
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	report := ffCampaignBytes(t, s,
		fault.Campaign{Seed: 8250777069400846129, Sites: 100, Checkpoints: 8, Workers: 1}, "RBM")
	runtime.ReadMemStats(&after)
	const detail = "sim: pc=38 RV $8, $0: mem: vector-spad: access [5120, 1073747944) outside capacity 65536"
	if !bytes.Contains(report, []byte(detail)) {
		t.Fatalf("report lacks the corrupted-length site %q", detail)
	}
	const wantDigest = "30d4e32717c88e5ebfb1af939d2ebb270c50d0cb41f52f8845ca65bbc5f3b7ef"
	if got := fmt.Sprintf("%x", sha256.Sum256(report)); got != wantDigest {
		t.Errorf("report digest %s, want %s", got, wantDigest)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("campaign allocated %d MiB, want under 64 MiB", got>>20)
	}
}
