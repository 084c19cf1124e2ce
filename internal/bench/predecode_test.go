package bench

// Tests pinning the pre-decoded dispatch layer's contract (docs/PERF.md,
// Level 4): the tight fused loop the suite runs and the observing slow
// loop agree on every Table III workload, fault-campaign reports keep
// their pinned bytes, the decode cache singleflights across machines and
// counts its traffic, and the warm decoded hot loop is allocation-free.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"testing"

	"cambricon/internal/metrics"
	"cambricon/internal/sim"
)

// TestPredecodeBitIdenticalTableIII runs every Table III workload through
// both run loops and requires identical statistics — cycles, stall
// attribution, opcode histograms, everything: Suite.Stats runs the tight
// fused loop (and verifies the outputs), and a machine prepared the same
// way with an instruction trace attached runs the observing slow loop.
// This is the acceptance check that fusion is a host-time optimization
// only.
func TestPredecodeBitIdenticalTableIII(t *testing.T) {
	s := NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe
	fused := 0
	for _, p := range progs {
		tight, err := s.Stats(p.Name)
		if err != nil {
			t.Fatalf("%s tight loop: %v", p.Name, err)
		}
		m, pooled, err := s.preparedMachine(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTrace(io.Discard)
		slow, err := m.Run()
		m.SetTrace(nil)
		s.releaseMachine(m, pooled)
		if err != nil {
			t.Fatalf("%s slow loop: %v", p.Name, err)
		}
		if !reflect.DeepEqual(tight, slow) {
			t.Errorf("%s: stats diverge\ntight %+v\nslow  %+v", p.Name, tight, slow)
		}
		dp, err := s.decodedProgram(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		fused += dp.Fusion().Total()
	}
	// The equivalence above is only meaningful if superinstructions
	// actually fire somewhere in the suite.
	if fused == 0 {
		t.Error("no Table III workload fused any pairs; the fused path is untested")
	}
}

// TestPredecodeCampaignReportsByteIdentical pins the bytes of a fault
// campaign's report — golden run through the tight fused loop, faulted
// runs through the observing slow loop — to the SHA-256 the report had
// when the per-step decode interpreter still existed to cross-check it
// (the same with pre-decode on and off).
func TestPredecodeCampaignReportsByteIdentical(t *testing.T) {
	const want = "41cde1b079561bb7ecd6a2a52dba046693b490f2a13aff45f251cb6272074e6e"
	sum := sha256.Sum256(campaignBytes(t, NewSuite(7), 2))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("campaign report SHA-256 = %s, want %s", got, want)
	}
}

// TestPredecodeCacheSingleflight pins the decode cache: one miss (and
// one pre-decoded program) per benchmark no matter how many machines run
// it, hits for every reuse, and fused-pair counters published per kind.
func TestPredecodeCacheSingleflight(t *testing.T) {
	reg := metrics.New()
	s := NewSuite(7)
	s.Metrics = reg
	if _, err := s.Stats("SOM"); err != nil {
		t.Fatal(err)
	}
	// RunOnce bypasses the stats cache but not the decode cache: the
	// snapshot already carries the decoded program, so this is a hit-free
	// reuse; a third run through a fresh pooled machine is a hit.
	prog, err := s.Program("SOM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.decodedProgram(context.Background(), prog); err != nil { // explicit reuse: a hit
		t.Fatal(err)
	}
	c := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := c(MetricPredecoded); got != 1 {
		t.Fatalf("programs predecoded = %d, want 1", got)
	}
	if got := c(MetricDecodeMisses); got != 1 {
		t.Fatalf("decode misses = %d, want 1", got)
	}
	if got := c(MetricDecodeHits); got != 1 {
		t.Fatalf("decode hits = %d, want 1", got)
	}
	dp, err := sim.Predecode(prog.Asm.Instructions)
	if err != nil {
		t.Fatal(err)
	}
	var published uint64
	for _, kind := range []string{"load->matvec", "matvec->act", "vec-chain"} {
		published += reg.Counter(MetricFusedPairs, "", metrics.L("kind", kind)).Value()
	}
	if int(published) != dp.Fusion().Total() {
		t.Fatalf("fused pairs published = %d, want %d", published, dp.Fusion().Total())
	}
}

// TestPredecodedWarmRunAllocationFree pins the acceptance criterion that
// the decoded hot loop allocates nothing: a warm iteration — snapshot
// restore plus a full run through the tight fused dispatcher — performs
// zero heap allocations.
func TestPredecodedWarmRunAllocationFree(t *testing.T) {
	s := NewSuite(7)
	prog, err := s.Program(dispatchBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe
	snap, err := s.preparedSnapshot(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decoded run allocates %v times per iteration, want 0", allocs)
	}
}
