package bench

// Tests pinning the checkpoint fast-forwarding contract (docs/PERF.md,
// Level 5): a campaign with Checkpoints set produces a report
// byte-identical to the ordinary full-replay campaign — across all five
// fault models, so the predicted dma-bit firing index and the stuck-lane
// reach schedule are exercised too, and over every target for stuck
// lanes — and degrades cleanly when checkpoints cannot be prepared.

import (
	"bytes"
	"context"
	"strings"
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
		// All 30 sites dispatch through the fast-forward path.
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

// TestCampaignFastForwardStuckLane pins the stuck-lane fast-forward on
// every target: stuck-lane-only campaigns, checkpointed and replayed,
// produce byte-identical reports across seeds. Some sites must complete
// without simulating their remainder — no golden output reaches the
// lane, or a proof succeeds past the lane's last reach — so a silent
// fallback to full replay fails too.
func TestCampaignFastForwardStuckLane(t *testing.T) {
	for _, seed := range []uint64{3, 7, 11} {
		reg := metrics.New()
		s := NewSuite(seed)
		s.Metrics = reg
		targets, err := s.FaultTargets()
		if err != nil {
			t.Fatal(err)
		}
		report := func(checkpoints int) []byte {
			t.Helper()
			c := fault.Campaign{Seed: seed, Sites: 100, Workers: 2, Checkpoints: checkpoints,
				Models: []fault.Model{fault.ModelStuckLane}}
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
		slow := report(0)
		fast := report(8)
		if !bytes.Equal(slow, fast) {
			t.Fatalf("seed %d: stuck-lane fast-forwarded report differs from full replay:\n--- replay ---\n%s\n--- fastforward ---\n%s",
				seed, slow, fast)
		}
		if got := reg.Counter(MetricFFConverged, "").Value(); got == 0 {
			t.Fatalf("seed %d: no stuck-lane site completed without simulating its remainder", seed)
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

// TestPrepareCheckpointsRefusesWrongGolden pins that fast-forwarding
// has one mode: a preparation pass whose golden output fails its check
// fails PrepareCheckpoints, so the campaign replays the target instead
// of fast-forwarding without a golden observation to converge to.
func TestPrepareCheckpointsRefusesWrongGolden(t *testing.T) {
	s := NewSuite(7)
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	tgt := targets[0].(*faultTarget)
	wrong := []byte("not the recorded output")
	tgt.b.out.Store(&wrong)
	if err := tgt.PrepareCheckpoints(4); err == nil || !strings.Contains(err.Error(), "golden run") {
		t.Fatalf("PrepareCheckpoints with a wrong golden output: err = %v, want a golden-run error", err)
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
	b, err := newBenchmark(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(7)
	tgt := &faultTarget{suite: s, b: b}
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

// stuckReachKernel reaches vector lane 0 twice: with a VAV whose output
// (pad word 64) nothing reads again, at dynamic index 5, and with a VAV
// at index 607 whose output the VSTORE then stores. The delay loops
// place that last reach on the fourth of 8 checkpoints of the
// 1,366-instruction run (607) and the VSTORE before the fifth (758).
const stuckReachKernel = `
	SMOVE  $1, #1
	SMOVE  $2, #0
	SMOVE  $3, #64
	SMOVE  $4, #128
	VLOAD  $2, $1, #0
	VAV    $4, $1, $2, $2
	SMOVE  $8, #300
a:	SADD   $8, $8, #-1
	CB     #a, $8
	VAV    $3, $1, $2, $2
	VSTORE $3, $1, #4096
	SMOVE  $8, #378
b:	SADD   $8, $8, #-1
	CB     #b, $8
`

// TestStuckLaneProofWaitsPastLastReach pins the floor of stuck-lane
// convergence proofs. A stuck bit on lane 0 corrupts the output, so the
// site is SDC. Yet at boundary 607, before the last reach has executed,
// the faulted machine differs from the golden one only in the dead pad
// word the first reach wrote: a proof tried there succeeds, and
// returning the golden observation on it would report the site masked.
// Proofs therefore start at the boundary after the lane's last reach.
func TestStuckLaneProofWaitsPastLastReach(t *testing.T) {
	src, err := asm.Assemble(stuckReachKernel)
	if err != nil {
		t.Fatal(err)
	}
	prog := &codegen.Program{
		Name:    "stuck-reach",
		Source:  stuckReachKernel,
		Asm:     src,
		Chunks:  []codegen.Chunk{{Addr: 0, Data: fixed.FromFloats([]float64{1})}},
		Results: []codegen.Result{{Name: "out", Addr: 4096, N: 1}},
	}
	b, err := newBenchmark(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(7)
	tgt := &faultTarget{suite: s, b: b}
	golden := tgt.Run(nil, 0)
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	if err := tgt.PrepareCheckpoints(8); err != nil {
		t.Fatal(err)
	}
	const last = 607
	var atLast *sim.Snapshot
	for _, c := range tgt.ckpts {
		if c.Instructions() == last {
			atLast = c
		}
	}
	first, l, ok := tgt.lv.LaneReach(fault.UnitVector, 0)
	if golden.Instructions != 1366 || atLast == nil || !ok || first != 5 || l != last {
		t.Fatalf("kernel layout moved: %d instructions, checkpoint at %d: %v, lane 0 reached over [%d, %d] (%v)",
			golden.Instructions, last, atLast != nil, first, l, ok)
	}
	f := fault.Fault{Model: fault.ModelStuckLane, Unit: fault.UnitVector, Lane: 0, Bit: 0, Val: 1}

	// The premise: a proof at the last reach's boundary succeeds.
	m, err := sim.New(s.runConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(tgt.ckpts[0]); err != nil {
		t.Fatal(err)
	}
	m.SetInjector(fault.New(f))
	if _, _, err := m.RunUntil(last); err != nil {
		t.Fatal(err)
	}
	if conv, _ := m.ConvergedWith(atLast, tgt.lv); !conv {
		t.Fatal("no proof at the last reach's boundary: the kernel no longer tests the floor")
	}

	budget := 8 * golden.Cycles
	replay := fault.Classify(golden, tgt.RunBuf(fault.New(f), budget, nil))
	fast := fault.Classify(golden, tgt.RunSiteBuf(f, budget, nil))
	if replay != fault.OutcomeSDC || fast != replay {
		t.Fatalf("site %v: replayed %v, fast-forwarded %v; want sdc for both", f, replay, fast)
	}
}

// BenchmarkStuckLaneSites times stuck-lane-only campaigns over CNN and
// SOM, fast-forwarded from 8 checkpoints and the golden run's lane-reach
// schedule (checkpointed) and replayed from instruction 0 (replay). Their
// vector outputs reach every lane again within the last 2% of the run,
// after the last checkpoint boundary, so their vector stuck-lane sites
// try no convergence proof and simulate most of the run: the case the
// lane-reach schedule cannot shorten. Each iteration is one campaign,
// golden runs included; ns/site divides its time by the sites it
// classified.
func BenchmarkStuckLaneSites(b *testing.B) {
	const sites = 40
	run := func(b *testing.B, checkpoints int) {
		s := NewSuite(7)
		all, err := s.FaultTargets()
		if err != nil {
			b.Fatal(err)
		}
		var targets []fault.Target
		for _, t := range all {
			if t.Name() == "CNN" || t.Name() == "SOM" {
				targets = append(targets, t)
			}
		}
		c := fault.Campaign{Seed: s.Seed, Sites: sites, Workers: 1, TargetWorkers: 1,
			Checkpoints: checkpoints, Models: []fault.Model{fault.ModelStuckLane}}
		// Untimed: generation, snapshots, checkpoints.
		if _, err := c.Run(context.Background(), targets); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(context.Background(), targets); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sites*len(targets)), "ns/site")
	}
	b.Run("replay", func(b *testing.B) { run(b, 0) })
	b.Run("checkpointed", func(b *testing.B) { run(b, 8) })
}
