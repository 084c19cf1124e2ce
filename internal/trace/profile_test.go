package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"cambricon/internal/core"
)

// feedProfile drives a Profile with a small synthetic run: two scalar
// adds, one vector DMA, one occupying vector op, and a bank conflict.
func feedProfile() *Profile {
	p := NewProfile()
	p.Label = "synthetic"
	p.BeginRun(RunMeta{ClockHz: 1e9, VectorLanes: 32, SpadBanks: 4})
	events := []InstEvent{
		{Index: 0, Inst: core.Instruction{Op: core.SADD}, FU: FUScalar, ExecCycles: 1, Gap: 5,
			Attr: Breakdown{CauseCompute: 3, CauseFrontend: 2}, RegWait: 1},
		{Index: 1, Inst: core.Instruction{Op: core.SADD}, FU: FUScalar, ExecCycles: 1, Gap: 1,
			Attr: Breakdown{CauseCompute: 1}},
		{Index: 2, Inst: core.Instruction{Op: core.VLOAD}, FU: FUVector, IsDMA: true, DMABytes: 128,
			ExecCycles: 10, Gap: 12, Attr: Breakdown{CauseCompute: 10, CauseMemDep: 2},
			MemDepWait: 2},
		{Index: 3, Inst: core.Instruction{Op: core.VAV}, FU: FUVector, ExecCycles: 4, Gap: 6,
			Attr: Breakdown{CauseCompute: 4, CauseFUBusy: 2}, FUBusyWait: 2,
			BranchTaken: true},
	}
	for i := range events {
		p.Instruction(&events[i])
	}
	p.BankConflict("vector-spad", 2, 3, 11)
	p.BankConflict("vector-spad", 2, 1, 15)
	p.EndRun(24)
	return p
}

func TestProfileRollup(t *testing.T) {
	p := feedProfile()
	if p.total != 24 || p.insts != 4 {
		t.Fatalf("total=%d insts=%d", p.total, p.insts)
	}
	causes := p.Causes()
	if causes.Sum() != 24 {
		t.Errorf("cause sum = %d, want total 24", causes.Sum())
	}
	rep := p.Report(0)
	if rep.Label != "synthetic" || rep.Cycles != 24 || rep.Instructions != 4 {
		t.Errorf("report header = %+v", rep)
	}
	if rep.CPI != 6 {
		t.Errorf("CPI = %v, want 6", rep.CPI)
	}
	if rep.Branches != 1 || rep.DMABytes != 128 || rep.DMACycles != 10 {
		t.Errorf("branches=%d dmaBytes=%d dmaCycles=%d", rep.Branches, rep.DMABytes, rep.DMACycles)
	}
	// Stall rows cover every cycle and arrive sorted descending.
	var sum int64
	for i, s := range rep.Stalls {
		sum += s.Cycles
		if i > 0 && s.Cycles > rep.Stalls[i-1].Cycles {
			t.Errorf("stall rows not sorted at %d", i)
		}
	}
	if sum != 24 {
		t.Errorf("stall rows sum to %d, want 24", sum)
	}
	if rep.Stalls[0].Cause != "compute" || rep.Stalls[0].Cycles != 18 {
		t.Errorf("top stall = %+v", rep.Stalls[0])
	}
	// Latency view.
	if rep.Latency.MemDep != 2 || rep.Latency.FUBusy != 2 || rep.Latency.RegDep != 1 {
		t.Errorf("latency = %+v", rep.Latency)
	}
	// Opcode histogram: SADD pooled (2 ops, 6 cycles), sorted by cycles.
	ops := map[string]OpcodeProfile{}
	for _, o := range rep.Opcodes {
		ops[o.Op] = o
	}
	if o := ops["SADD"]; o.Count != 2 || o.Cycles != 6 || o.StallCycles != 2 {
		t.Errorf("SADD row = %+v", o)
	}
	if o := ops["VLOAD"]; o.Count != 1 || o.Cycles != 12 || o.StallCycles != 2 {
		t.Errorf("VLOAD row = %+v", o)
	}
	// FU utilization: vector busy 14 of 24; scalar pipelined 2 ops.
	fus := map[string]FUUtil{}
	for _, f := range rep.FUs {
		fus[f.FU] = f
	}
	if f := fus["vector"]; f.Ops != 2 || f.BusyCycles != 14 {
		t.Errorf("vector FU = %+v", f)
	}
	if f := fus["scalar"]; f.Ops != 2 || f.BusyCycles != 2 {
		t.Errorf("scalar FU = %+v", f)
	}
	// Bank-conflict heatmap.
	if len(rep.BankConflicts) != 1 {
		t.Fatalf("conflicts = %+v", rep.BankConflicts)
	}
	bc := rep.BankConflicts[0]
	if bc.Spad != "vector-spad" || bc.Total != 4 || bc.PerBank[2] != 4 {
		t.Errorf("heatmap = %+v", bc)
	}
}

func TestProfileReportTopN(t *testing.T) {
	p := feedProfile()
	rep := p.Report(1)
	if len(rep.Opcodes) != 1 {
		t.Errorf("topN=1 kept %d opcode rows", len(rep.Opcodes))
	}
	if rep.Opcodes[0].Op != "VLOAD" {
		t.Errorf("top opcode = %q, want the most expensive (VLOAD)", rep.Opcodes[0].Op)
	}
}

func TestProfileRender(t *testing.T) {
	out := feedProfile().Report(0).Render()
	for _, want := range []string{
		"profile: synthetic", "cycles=24", "stall attribution",
		"total", "100.0%", "vector-spad", "per-instruction wait totals",
		"dma: 128 bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestProfileReportJSON(t *testing.T) {
	rep := feedProfile().Report(0)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cycles != rep.Cycles || got.Label != rep.Label || len(got.Stalls) != len(rep.Stalls) {
		t.Errorf("JSON round trip mismatch: %+v", got)
	}
}

func TestProfileUnknownOpcodePools(t *testing.T) {
	p := NewProfile()
	p.BeginRun(RunMeta{})
	ev := InstEvent{Inst: core.Instruction{Op: core.Opcode(250)}, FU: FU(250), Gap: 3, Attr: Breakdown{CauseCompute: 3}}
	p.Instruction(&ev)
	p.EndRun(3)
	rep := p.Report(0)
	// Unknown opcodes pool at index 0, which is skipped by the histogram;
	// the stall attribution still covers the cycles.
	var sum int64
	for _, s := range rep.Stalls {
		sum += s.Cycles
	}
	if sum != 3 {
		t.Errorf("stall sum = %d, want 3", sum)
	}
}
