package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"cambricon/internal/fault"
)

// TestHostReportSchema pins the BENCH_host.json format: versioned
// schema, every measurement row, and computed ratios.
func TestHostReportSchema(t *testing.T) {
	rep, err := RunHostBenchmarks(7, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != HostSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, HostSchema)
	}
	if rep.Benchmark != hostBenchmark {
		t.Fatalf("benchmark = %q, want %q", rep.Benchmark, hostBenchmark)
	}
	if rep.DispatchBenchmark != dispatchBenchmark {
		t.Fatalf("dispatch benchmark = %q, want %q", rep.DispatchBenchmark, dispatchBenchmark)
	}
	want := []string{"campaign-run/warm", "campaign-run/cold", "machine-acquire/warm", "machine-acquire/cold",
		"campaign-fastforward/replay", "campaign-fastforward/checkpointed", "serve-run/warm"}
	if len(rep.Entries) != len(want) {
		t.Fatalf("entries = %d, want %d", len(rep.Entries), len(want))
	}
	for i, e := range rep.Entries {
		if e.Name != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, want[i])
		}
		if e.Runs <= 0 || e.NSPerRun <= 0 {
			t.Fatalf("entry %q not measured: %+v", e.Name, e)
		}
	}
	if serve := rep.Entries[len(rep.Entries)-1]; serve.AllocsPerRun != 0 {
		t.Fatalf("serve-run/warm allocates %v times per run, want 0", serve.AllocsPerRun)
	}
	if rep.CampaignSpeedup <= 0 || rep.CampaignAllocRatio <= 0 ||
		rep.RestoreSpeedup <= 0 || rep.RestoreAllocRatio <= 0 ||
		rep.FastForwardSpeedup <= 0 {
		t.Fatalf("ratios not computed: %+v", rep)
	}

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded HostReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if decoded.Schema != HostSchema {
		t.Fatalf("round-tripped schema = %q", decoded.Schema)
	}
}

// benchCampaign backs BenchmarkCampaignThroughput: one single-worker
// fault campaign (golden + 32 faulted runs) per iteration, over a suite
// in the given warm mode. This is the acceptance measurement — warm must
// be >= 2x faster and >= 10x fewer allocations than cold (see
// BENCH_host.json and docs/PERF.md Level 3).
func benchCampaign(b *testing.B, warm bool) {
	s := NewSuite(7)
	s.cold = !warm
	fn, err := hostCampaignFn(s, 32)
	if err != nil {
		b.Fatal(err)
	}
	if err := fn(); err != nil { // untimed: program generation, snapshot capture
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignThroughput(b *testing.B) {
	b.Run("warm", func(b *testing.B) { benchCampaign(b, true) })
	b.Run("cold", func(b *testing.B) { benchCampaign(b, false) })
}

// BenchmarkFastForwardCampaign compares a warm single-worker
// transient-models-only fault campaign (golden + 32 faulted runs) over
// the dispatch benchmark with checkpoint fast-forwarding against full
// prefix replay — the Level 5 acceptance measurement (see
// BENCH_host.json's campaign-fastforward rows and docs/PERF.md). Fault
// reports are byte-identical between the two variants; only host time
// moves.
func BenchmarkFastForwardCampaign(b *testing.B) {
	run := func(b *testing.B, checkpoints int) {
		s := NewSuite(7)
		fn, err := hostCampaignFnWith(s, dispatchBenchmark, fault.Campaign{
			Seed: s.Seed, Sites: 32, Workers: 1, Checkpoints: checkpoints,
			Models: []fault.Model{fault.ModelSpadBit, fault.ModelGPRBit, fault.ModelFetchBit, fault.ModelDMABit},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := fn(); err != nil { // untimed: generation, snapshots, checkpoints
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("checkpointed", func(b *testing.B) { run(b, hostFFCheckpoints) })
	b.Run("replay", func(b *testing.B) { run(b, 0) })
}

// BenchmarkWarmRestart compares acquiring a ready-to-run machine via
// snapshot restore (after a dirtying run) against the historical full
// build: sim.New + image replay + program load.
func BenchmarkWarmRestart(b *testing.B) {
	prep, warm, cold, err := hostRestoreFns(NewSuite(7))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := prep(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := warm(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cold(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
