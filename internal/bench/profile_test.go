package bench

import "testing"

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
