package bench

// Tests pinning the pre-decoded dispatch layer's contract (docs/PERF.md,
// Level 4): observed and unobserved runs agree on every Table III
// workload, fault-campaign reports keep their pinned bytes, the decode
// cache singleflights across machines and counts its traffic, and a warm
// decoded run is allocation-free.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"testing"

	"cambricon/internal/metrics"
	"cambricon/internal/sim"
	"cambricon/internal/trace"
)

// TestPredecodeBitIdenticalTableIII runs every Table III workload
// unobserved and observed and requires identical statistics — cycles,
// stall attribution, opcode histograms, everything: Suite.Stats runs
// unobserved (and verifies the outputs), and a machine prepared the same
// way runs with a text trace attached.
func TestPredecodeBitIdenticalTableIII(t *testing.T) {
	s := NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		plain, err := s.Stats(p.Name)
		if err != nil {
			t.Fatalf("%s unobserved: %v", p.Name, err)
		}
		b := s.byName[p.Name]
		m, pooled, err := s.preparedMachine(context.Background(), b, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTracer(trace.NewText(io.Discard))
		observed, err := m.Run()
		s.releaseMachine(m, pooled)
		if err != nil {
			t.Fatalf("%s observed: %v", p.Name, err)
		}
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("%s: stats diverge\nunobserved %+v\nobserved   %+v", p.Name, plain, observed)
		}
	}
}

// TestPredecodeCampaignReportsByteIdentical pins the bytes of a fault
// campaign's report — golden run unobserved, faulted runs observed by
// their injector — to the SHA-256 the report had
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
// it, and hits for every reuse.
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
	b, err := s.lookup("SOM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.decodedProgram(context.Background(), b); err != nil { // explicit reuse: a hit
		t.Fatal(err)
	}
	c := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := c(MetricDecodeMisses); got != 1 {
		t.Fatalf("decode misses = %d, want 1", got)
	}
	if got := c(MetricDecodeHits); got != 1 {
		t.Fatalf("decode hits = %d, want 1", got)
	}
}

// TestPredecodedWarmRunAllocationFree pins the acceptance criterion that
// the decoded run loop allocates nothing: a warm iteration — snapshot
// restore plus a full unobserved run — performs zero heap allocations.
func TestPredecodedWarmRunAllocationFree(t *testing.T) {
	s := NewSuite(7)
	b, err := s.lookup(dispatchBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.preparedSnapshot(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(s.runConfig(0))
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
