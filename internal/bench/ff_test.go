package bench

// Tests pinning the checkpoint fast-forwarding contract (docs/PERF.md,
// Level 5): a campaign with Checkpoints set produces a report
// byte-identical to the ordinary full-replay campaign — across all five
// fault models, so the stuck-lane fallback and the windowed dma-bit hop
// path are exercised too — and degrades cleanly when checkpoints cannot
// be prepared.

import (
	"bytes"
	"context"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/codegen"
	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/metrics"
	"cambricon/internal/sim"
)

// ffCampaignBytes runs campaign c over the suite's named target and
// returns the serialized report.
func ffCampaignBytes(t *testing.T, s *Suite, c fault.Campaign, name string) []byte {
	t.Helper()
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	var target fault.Target
	for _, tgt := range targets {
		if tgt.Name() == name {
			target = tgt
		}
	}
	if target == nil {
		t.Fatalf("target %q not found", name)
	}
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

// TestCampaignFastForwardByteIdentical is the differential gate: the
// fast-forwarded campaign's report bytes equal the full-replay
// campaign's, for every worker count, over the full fault-model
// taxonomy.
func TestCampaignFastForwardByteIdentical(t *testing.T) {
	slow := ffCampaignBytes(t, NewSuite(7),
		fault.Campaign{Seed: 7, Sites: 30, Workers: 1}, "MLP")
	for _, workers := range []int{1, 4} {
		reg := metrics.New()
		fast := ffCampaignBytes(t, NewSuite(7),
			fault.Campaign{Seed: 7, Sites: 30, Workers: workers, Checkpoints: 4, Metrics: reg}, "MLP")
		if !bytes.Equal(slow, fast) {
			t.Fatalf("workers=%d: fast-forwarded report differs from full replay:\n--- replay ---\n%s\n--- fastforward ---\n%s",
				workers, slow, fast)
		}
		// All 30 sites dispatch through the fast-forward path (stuck-lane
		// sites fall back to full replay inside the target, but they are
		// still dispatched through it).
		if got := reg.Counter(fault.MetricFaultFastForward, "").Value(); got != 30 {
			t.Fatalf("workers=%d: fast-forward dispatches = %d, want 30", workers, got)
		}
	}
}

// TestCampaignFastForwardModelSubset pins the combination the host
// benchmark measures: a transient-models-only campaign, fast-forwarded,
// still matches its own full replay byte for byte.
func TestCampaignFastForwardModelSubset(t *testing.T) {
	models := []fault.Model{fault.ModelSpadBit, fault.ModelGPRBit, fault.ModelFetchBit, fault.ModelDMABit}
	slow := ffCampaignBytes(t, NewSuite(9),
		fault.Campaign{Seed: 9, Sites: 20, Workers: 2, Models: models}, "MLP")
	fast := ffCampaignBytes(t, NewSuite(9),
		fault.Campaign{Seed: 9, Sites: 20, Workers: 2, Models: models, Checkpoints: 6}, "MLP")
	if !bytes.Equal(slow, fast) {
		t.Fatalf("transient-subset fast-forwarded report differs from full replay:\n--- replay ---\n%s\n--- fastforward ---\n%s", slow, fast)
	}
}

// TestCampaignFastForwardByteIdenticalSOM pins the byte-identity gate on
// the benchmark the host measurement uses (SOM) with the host row's
// transient-model campaign shape, across seeds — the workload where the
// convergence early exit actually triggers. The report must match full
// replay byte for byte, and at least one site must have completed
// through a convergence proof (otherwise the Level 5 speedup machinery
// silently regressed to prefix-skipping).
func TestCampaignFastForwardByteIdenticalSOM(t *testing.T) {
	models := []fault.Model{fault.ModelSpadBit, fault.ModelGPRBit, fault.ModelFetchBit, fault.ModelDMABit}
	for _, seed := range []uint64{7, 11} {
		slow := ffCampaignBytes(t, NewSuite(seed),
			fault.Campaign{Seed: seed, Sites: 32, Workers: 2, Models: models}, "SOM")
		reg := metrics.New()
		s := NewSuite(seed)
		s.Metrics = reg
		fast := ffCampaignBytes(t, s,
			fault.Campaign{Seed: seed, Sites: 32, Workers: 2, Models: models, Checkpoints: 8}, "SOM")
		if !bytes.Equal(slow, fast) {
			t.Fatalf("seed %d: SOM fast-forwarded report differs from full replay:\n--- replay ---\n%s\n--- fastforward ---\n%s",
				seed, slow, fast)
		}
		if got := reg.Counter(MetricFFConverged, "").Value(); got == 0 {
			t.Fatalf("seed %d: no site completed through a convergence proof", seed)
		}
	}
}

// TestCampaignFastForwardColdFallback pins the degradation path: a cold
// suite cannot prepare checkpoints, so a Checkpoints campaign silently
// runs the ordinary path — same report, zero fast-forwarded runs.
func TestCampaignFastForwardColdFallback(t *testing.T) {
	reg := metrics.New()
	cold := ffCampaignBytes(t, coldSuite(7),
		fault.Campaign{Seed: 7, Sites: 15, Workers: 2, Checkpoints: 4, Metrics: reg}, "MLP")
	warm := ffCampaignBytes(t, NewSuite(7),
		fault.Campaign{Seed: 7, Sites: 15, Workers: 2}, "MLP")
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold-fallback report differs from warm full replay")
	}
	if got := reg.Counter(fault.MetricFaultFastForward, "").Value(); got != 0 {
		t.Fatalf("cold suite fast-forwarded %d runs, want 0", got)
	}
}

// padWriteKernel writes 16 words of vector-scratchpad page 2 once (the
// VLOAD), then flushes the 32-entry memory queue with vector work on
// page 0, idles, and only at the very end reads page 2 into its output
// (the VSTORE).
// The delay loops place the VLOAD (dynamic index 604) shortly after the
// fourth of 8 checkpoints of the 1,730-instruction run (576) and finish
// the flush before the fifth (768).
const padWriteKernel = `
	SMOVE  $1, #16
	SMOVE  $2, #8192
	SMOVE  $6, #0
	SMOVE  $8, #300
a:	SADD   $8, $8, #-1
	CB     #a, $8
	VLOAD  $2, $1, #0
	SMOVE  $2, #0
	SMOVE  $8, #40
b:	VAV    $6, $1, $6, $6
	SADD   $8, $8, #-1
	CB     #b, $8
	SMOVE  $8, #500
c:	SADD   $8, $8, #-1
	CB     #c, $8
	SMOVE  $5, #8192
	VSTORE $5, $1, #4096
`

// TestConvergedWithSeesSkippedGoldenPadWrite pins the golden half of the
// scratchpad page bound. Flipping bit 12 of the VLOAD's address register
// moves its write from page 2 to page 3 — same banks, same timing — and
// the register is rewritten at once, so by the next checkpoint the
// faulted machine differs only in those two pages. Page 3 is never read
// again; page 2 holds the golden run's data, which the final VSTORE
// reads into the output, yet the faulted machine never wrote it. Only
// the golden run's recorded writes put page 2 in the bound, so a proof
// that compared the machine's dirty pages alone would call the run
// converged and the fast-forwarded campaign would report masked where
// the replay reports SDC.
func TestConvergedWithSeesSkippedGoldenPadWrite(t *testing.T) {
	src, err := asm.Assemble(padWriteKernel)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 16)
	for i := range in {
		in[i] = float64(i%5+1) * 0.5
	}
	prog := &codegen.Program{
		Name:    "pad-write",
		Source:  padWriteKernel,
		Asm:     src,
		Chunks:  []codegen.Chunk{{Addr: 0, Data: fixed.FromFloats(in)}},
		Results: []codegen.Result{{Name: "out", Addr: 4096, N: 16}},
	}
	s := NewSuite(7)
	tgt := &faultTarget{suite: s, b: &benchmark{prog: prog}}
	golden := tgt.Run(nil, 0)
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	if err := tgt.PrepareCheckpoints(8); err != nil {
		t.Fatal(err)
	}
	const write = 604 // the VLOAD's dynamic index
	var before, after *sim.Snapshot
	for _, c := range tgt.ckpts {
		if c.Instructions() <= write {
			before = c
		} else if after == nil {
			after = c
		}
	}
	if golden.Instructions != 1730 || before.Instructions() != 576 || after.Instructions() != 768 {
		t.Fatalf("kernel layout moved: %d instructions, checkpoints %d and %d around the write",
			golden.Instructions, before.Instructions(), after.Instructions())
	}

	// The proof itself: restore the checkpoint before the write, apply
	// the fault where the injector would, and stop at the next one.
	m, err := sim.New(s.runConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(before); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunUntil(write); err != nil {
		t.Fatal(err)
	}
	m.FlipGPRBit(2, 12)
	if _, _, err := m.RunUntil(after.Instructions()); err != nil {
		t.Fatal(err)
	}
	if conv, retry := m.ConvergedWith(after, tgt.lv); conv {
		t.Fatal("ConvergedWith reported convergence with the golden run's page-2 write missing")
	} else if retry != golden.Instructions {
		t.Fatalf("retry hint %d, want %d (past the final VSTORE that reads page 2)", retry, golden.Instructions)
	}

	// The campaign: fast-forwarded and replayed, the site is SDC.
	f := fault.Fault{Model: fault.ModelGPRBit, At: write, Reg: 2, Bit: 12}
	budget := 8 * golden.Cycles
	replay := fault.Classify(golden, tgt.RunBuf(fault.New(f), budget, nil))
	fast := fault.Classify(golden, tgt.RunSiteBuf(f, budget, nil))
	if replay != fault.OutcomeSDC || fast != replay {
		t.Fatalf("site %v: replayed %v, fast-forwarded %v; want sdc for both", f, replay, fast)
	}
}
