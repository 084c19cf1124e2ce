package bench

import (
	"testing"

	"cambricon/internal/trace"
)

func TestSuiteProfileMatchesStats(t *testing.T) {
	s := newTestSuite()
	st, err := s.Stats("MLP")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Profile("MLP")
	if err != nil {
		t.Fatal(err)
	}
	// The tracer contract: the profiled re-run is bit-identical to the
	// cached untraced run.
	if rep.Cycles != st.Cycles || rep.Instructions != st.Instructions {
		t.Errorf("profile run: cycles=%d insts=%d, cached stats: %d/%d",
			rep.Cycles, rep.Instructions, st.Cycles, st.Instructions)
	}
	if rep.Label != "MLP" {
		t.Errorf("label = %q", rep.Label)
	}
	var sum int64
	for _, row := range rep.Stalls {
		sum += row.Cycles
	}
	if sum != rep.Cycles {
		t.Errorf("stall rows sum to %d, want %d", sum, rep.Cycles)
	}
	if len(rep.Opcodes) == 0 || len(rep.FUs) == 0 {
		t.Errorf("profile missing opcode or FU rows: %+v", rep)
	}
}

func TestSuiteProfileUnknownBenchmark(t *testing.T) {
	if _, err := newTestSuite().Profile("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestProfileLatencyWaitsPinned pins the per-instruction wait totals of
// the ten programs at seed 7 — the latency view camsim -profile prints
// and -profile-json reports as latency_waits.
func TestProfileLatencyWaitsPinned(t *testing.T) {
	want := map[string]trace.LatencyWaits{
		"MLP":                {RegDep: 36, ROBFull: 0, MemQueueFull: 0, MemDep: 29732, FUBusy: 2816},
		"CNN":                {RegDep: 684, ROBFull: 4887, MemQueueFull: 1307, MemDep: 57107, FUBusy: 21526},
		"RNN":                {RegDep: 46, ROBFull: 0, MemQueueFull: 1788, MemDep: 55105, FUBusy: 3804},
		"LSTM":               {RegDep: 86, ROBFull: 680, MemQueueFull: 4886, MemDep: 133941, FUBusy: 21328},
		"Autoencoder":        {RegDep: 71, ROBFull: 4106, MemQueueFull: 1643, MemDep: 151680, FUBusy: 20082},
		"Sparse Autoencoder": {RegDep: 74, ROBFull: 4106, MemQueueFull: 1758, MemDep: 153366, FUBusy: 20305},
		"BM":                 {RegDep: 39, ROBFull: 0, MemQueueFull: 48238, MemDep: 2011695, FUBusy: 97606},
		"RBM":                {RegDep: 26, ROBFull: 0, MemQueueFull: 18338, MemDep: 579656, FUBusy: 20714},
		"SOM":                {RegDep: 16054, ROBFull: 0, MemQueueFull: 0, MemDep: 183423, FUBusy: 6556},
		"HNN":                {RegDep: 41, ROBFull: 0, MemQueueFull: 769, MemDep: 25580, FUBusy: 231},
	}
	s := NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != len(want) {
		t.Fatalf("%d programs, want %d", len(progs), len(want))
	}
	for _, p := range progs {
		rep, err := s.Profile(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Latency != want[p.Name] {
			t.Errorf("%s: latency_waits %+v, want %+v", p.Name, rep.Latency, want[p.Name])
		}
	}
}
