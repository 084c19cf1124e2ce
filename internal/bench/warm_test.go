package bench

// Tests pinning the warm-start layer's core contract: warm (pooled,
// snapshot-restored) and cold (machine-per-run) paths produce
// byte-identical simulated results, campaigns stay deterministic across
// worker counts, and the pool actually recycles machines without leaking
// goroutines.

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"cambricon/internal/fault"
	"cambricon/internal/metrics"
)

// warmBenchmarks keeps these tests fast: the two cheapest Table III
// programs still cover scalar, vector and matrix paths.
var warmBenchmarks = []string{"MLP", "HNN"}

func coldSuite(seed uint64) *Suite {
	s := NewSuite(seed)
	s.cold = true
	return s
}

// campaignBytes runs a fault campaign over the suite's MLP target and
// returns the serialized report.
func campaignBytes(t *testing.T, s *Suite, workers int) []byte {
	t.Helper()
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	var target fault.Target
	for _, tgt := range targets {
		if tgt.Name() == "MLP" {
			target = tgt
		}
	}
	c := fault.Campaign{Seed: s.Seed, Sites: 24, Workers: workers}
	rep, err := c.Run(context.Background(), []fault.Target{target})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWarmStatsMatchCold pins that warm-started benchmark runs report
// the exact statistics the historical cold path reports.
func TestWarmStatsMatchCold(t *testing.T) {
	warm, cold := NewSuite(7), coldSuite(7)
	for _, name := range warmBenchmarks {
		w, err := warm.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cold.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("%s: warm stats %+v != cold stats %+v", name, w, c)
		}
	}
	// The warm suite re-runs through the cache-bypassing Profile path;
	// its cycle count must match too.
	rep, err := warm.Profile("MLP")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := warm.Stats("MLP")
	if rep.Cycles != st.Cycles {
		t.Fatalf("warm profile cycles %d != stats cycles %d", rep.Cycles, st.Cycles)
	}
}

// TestCampaignWarmColdByteIdentical pins the headline determinism claim:
// the cambricon-fault/v1 report is byte-identical with warm-starts on
// and off.
func TestCampaignWarmColdByteIdentical(t *testing.T) {
	warm := campaignBytes(t, NewSuite(7), 2)
	cold := campaignBytes(t, coldSuite(7), 2)
	if !bytes.Equal(warm, cold) {
		t.Fatal("warm and cold campaign reports differ")
	}
}

// TestCampaignWorkersByteIdentical pins that machine pooling keeps the
// campaign deterministic across worker counts (run under -race in CI),
// and that the pooled workers neither leak goroutines nor keep building
// machines once the pool is primed.
func TestCampaignWorkersByteIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := metrics.New()
	s := NewSuite(7)
	s.Metrics = reg
	serial := campaignBytes(t, s, 1)
	parallel := campaignBytes(t, s, 8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("workers=1 and workers=8 campaign reports differ")
	}
	builds := reg.Counter(MetricPoolMisses, "").Value()
	reuses := reg.Counter(MetricPoolHits, "").Value()
	if reuses == 0 {
		t.Fatalf("pool never recycled a machine (builds=%d)", builds)
	}
	// Two campaigns = 2 golden + 48 faulted runs. The bounded free list
	// never sheds a machine on its own (unlike the sync.Pool it
	// replaced), so builds are exactly the high-water concurrency of
	// each campaign: at most 1 (serial) + 8 (parallel) machines.
	if builds+reuses < 50 {
		t.Fatalf("pool saw %d acquisitions for 50 runs (builds=%d reuses=%d)", builds+reuses, builds, reuses)
	}
	if builds > 9 {
		t.Fatalf("pool built %d machines for 50 runs across 1+8 workers (reuses=%d)", builds, reuses)
	}
	// Campaign workers exit after their sweep; give stragglers a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestFaultTargetBufferReuse pins the satellite allocation fix: RunBuf
// fills the caller's buffer instead of allocating when it has capacity.
func TestFaultTargetBufferReuse(t *testing.T) {
	targets, err := NewSuite(7).FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	var bt fault.BufferedTarget
	for _, tgt := range targets {
		if tgt.Name() == "MLP" {
			bt = tgt.(fault.BufferedTarget)
		}
	}
	first := bt.RunBuf(nil, 0, nil)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	buf := first.Output
	second := bt.RunBuf(nil, 0, buf)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if &buf[0] != &second.Output[0] {
		t.Fatal("RunBuf allocated a new output instead of reusing the buffer")
	}
	if !bytes.Equal(first.Output, second.Output) {
		t.Fatal("buffered rerun produced different output")
	}
}

// TestKernelMachineWarmMatchesCold pins the experiment paths (ablations,
// sweeps) that run handcrafted kernels on pristine pooled machines.
func TestKernelMachineWarmMatchesCold(t *testing.T) {
	warmTbl, err := RunMMVSweep(NewSuite(7))
	if err != nil {
		t.Fatal(err)
	}
	coldTbl, err := RunMMVSweep(coldSuite(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmTbl.Rows, coldTbl.Rows) {
		t.Fatalf("warm sweep %v != cold sweep %v", warmTbl.Rows, coldTbl.Rows)
	}
}

// TestWarmRestoreCopiesWrittenPages pins what a warm run pays to restore
// its machine: only the pages the previous run of the same program
// wrote, in all three memories. After two warm runs, the third RunOnce
// of MLP restores at most 80 KiB and of HNN at most 40 KiB, where
// whole-scratchpad restores cost 836 and 840 KiB.
func TestWarmRestoreCopiesWrittenPages(t *testing.T) {
	for _, c := range []struct {
		name string
		max  uint64
	}{{"MLP", 80 << 10}, {"HNN", 40 << 10}} {
		reg := metrics.New()
		s := NewSuite(7)
		s.Metrics = reg
		restored := reg.Counter(MetricRestoreBytes, "")
		var before uint64
		for run := 0; run < 3; run++ {
			before = restored.Value()
			if _, err := s.RunOnce(context.Background(), c.name); err != nil {
				t.Fatal(err)
			}
		}
		if got := restored.Value() - before; got == 0 || got > c.max {
			t.Errorf("%s: third warm run restored %d bytes, want 1 to %d", c.name, got, c.max)
		}
	}
}

// TestConcurrentFirstUsePreparesOnce pins the record's once-only cells
// under a cold start: Stats, RunOnce, Profile, a fault target's golden
// run and its checkpoint preparation, started together three times over
// on a fresh suite, decode the program once and prepare one snapshot,
// and every call that reports cycles reports the same number.
func TestConcurrentFirstUsePreparesOnce(t *testing.T) {
	const name = "MLP"
	reg := metrics.New()
	s := NewSuite(7)
	s.Metrics = reg
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	var target fault.FastForwardTarget
	for _, tgt := range targets {
		if tgt.Name() == name {
			target = tgt.(fault.FastForwardTarget)
		}
	}
	calls := []func() (int64, error){
		func() (int64, error) {
			st, err := s.Stats(name)
			return st.Cycles, err
		},
		func() (int64, error) {
			st, err := s.RunOnce(context.Background(), name)
			return st.Cycles, err
		},
		func() (int64, error) {
			rep, err := s.Profile(name)
			if err != nil {
				return 0, err
			}
			return rep.Cycles, nil
		},
		func() (int64, error) {
			obs := target.Run(nil, 0)
			return obs.Cycles, obs.Err
		},
		func() (int64, error) { return 0, target.PrepareCheckpoints(8) },
	}
	const rounds = 3
	cycles := make([]int64, rounds*len(calls))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cycles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			c, err := calls[i%len(calls)]()
			if err != nil {
				t.Error(err)
			}
			cycles[i] = c
		}(i)
	}
	close(start)
	wg.Wait()
	var want int64
	for i, c := range cycles {
		if c == 0 {
			continue
		}
		if want == 0 {
			want = c
		}
		if c != want {
			t.Errorf("call %d reported %d cycles, want %d", i, c, want)
		}
	}
	if want == 0 {
		t.Fatal("no call reported cycles")
	}
	if got := reg.Gauge(MetricSnapPrepared, "").Value(); got != 1 {
		t.Errorf("%d snapshots prepared, want 1", got)
	}
}
