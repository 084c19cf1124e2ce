package bench

// Tests pinning the machine pool's cross-configuration memory sharing:
// a pool miss for one architectural configuration steals an idle machine
// pooled under another configuration with the same memory geometry and
// Reconfigures it, and the reconfigured machine is indistinguishable
// from a freshly built one.

import (
	"context"
	"reflect"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/fault"
	"cambricon/internal/metrics"
	"cambricon/internal/sim"
)

// poolKernel exercises scalar, vector and matrix paths so a stale
// machine would show up in the statistics.
const poolKernel = `
	SMOVE $1, #64
	SMOVE $2, #0
	SMOVE $3, #0
	SMOVE $4, #8192
	RV    $2, $1
	MMV   $4, $1, $3, $2, $1
	VAV   $3, $1, $2, $2
`

// runPoolKernel runs the kernel on a suite-pooled machine for cfg and
// returns its statistics.
func runPoolKernel(t *testing.T, s *Suite, cfg sim.Config) sim.Stats {
	t.Helper()
	p, err := asm.Assemble(poolKernel)
	if err != nil {
		t.Fatal(err)
	}
	m, pooled, err := s.kernelMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(p.Instructions)
	st, err := m.Run()
	s.releaseMachine(m, pooled)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// idle returns how many machines cfg's pool entry holds idle.
func idle(s *Suite, cfg sim.Config) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	if e := s.pool.entries[poolKey(cfg)]; e != nil {
		return len(e.free)
	}
	return 0
}

// freshKernelStats is the reference: the same kernel on a machine built
// directly with sim.New.
func freshKernelStats(t *testing.T, cfg sim.Config) sim.Stats {
	t.Helper()
	p, err := asm.Assemble(poolKernel)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.LoadProgram(p.Instructions)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPoolCrossConfigMemSharing pins the sharing path end to end: two
// configurations differing only in architectural (non-memory) knobs
// share one machine, which moves between their entries, and the
// reconfigured machine's statistics are bit-identical to a fresh
// build's.
func TestPoolCrossConfigMemSharing(t *testing.T) {
	// Idle machines live on explicit bounded free lists, so reuse and
	// steal counts are deterministic, with or without the race detector.
	reg := metrics.New()
	s := NewSuite(11)
	s.Metrics = reg

	cfgA := s.Config
	cfgB := cfgA
	cfgB.IssueWidth = cfgA.IssueWidth * 2
	cfgB.VectorLanes = cfgA.VectorLanes / 2

	stA := runPoolKernel(t, s, cfgA)
	stB := runPoolKernel(t, s, cfgB) // A's machine is idle: must be stolen

	builds := reg.Counter(MetricPoolMisses, "")
	if got := builds.Value(); got != 1 {
		t.Fatalf("pool builds = %d, want 1 (second config must share)", got)
	}
	if a, b := idle(s, cfgA), idle(s, cfgB); a != 0 || b != 1 {
		t.Fatalf("idle machines A=%d B=%d, want 0 and 1 (B stole A's)", a, b)
	}

	if want := freshKernelStats(t, cfgA); !reflect.DeepEqual(stA, want) {
		t.Fatalf("cfgA pooled stats diverge from fresh build:\n pooled %+v\n fresh  %+v", stA, want)
	}
	if want := freshKernelStats(t, cfgB); !reflect.DeepEqual(stB, want) {
		t.Fatalf("cfgB shared-machine stats diverge from fresh build:\n shared %+v\n fresh  %+v", stB, want)
	}

	// And back again: cfgB's machine is now the idle one; cfgA steals it.
	stA2 := runPoolKernel(t, s, cfgA)
	if !reflect.DeepEqual(stA2, stA) {
		t.Fatalf("cfgA rerun on re-stolen machine diverges:\n got  %+v\n want %+v", stA2, stA)
	}
	if got := builds.Value(); got != 1 {
		t.Fatalf("pool builds after round trip = %d, want 1", got)
	}
	if a, b := idle(s, cfgA), idle(s, cfgB); a != 1 || b != 0 {
		t.Fatalf("idle machines after round trip A=%d B=%d, want 1 and 0", a, b)
	}
}

// TestPoolFreeListBound pins the explicit retention bound: releases
// beyond the free-list capacity drop machines instead of growing it,
// and a reuse is guaranteed (not best-effort) below the bound.
func TestPoolFreeListBound(t *testing.T) {
	var p machinePool
	cfg := sim.DefaultConfig()
	e, err := p.entry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cap(e.free) != defaultPoolMaxIdle {
		t.Fatalf("free-list capacity = %d, want %d", cap(e.free), defaultPoolMaxIdle)
	}

	// Acquire two, release both: both must come back (deterministically).
	m1, reused, err := p.acquire(cfg)
	if err != nil || reused {
		t.Fatalf("first acquire: reused=%v err=%v, want fresh build", reused, err)
	}
	m2, _, err := p.acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.release(m1)
	p.release(m2)
	if got := len(e.free); got != 2 {
		t.Fatalf("idle after two releases = %d, want 2", got)
	}
	if m, reused, _ := p.acquire(cfg); !reused || m != m2 {
		t.Fatalf("LIFO reuse: got %p reused=%v, want most recently released %p", m, reused, m2)
	}

	// Fill the free list to capacity by releasing fresh machines — each
	// one kept — then overflow by one: the overflow release is dropped.
	for len(e.free) < defaultPoolMaxIdle {
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := len(e.free)
		p.release(m)
		if len(e.free) != n+1 || e.free[n] != m {
			t.Fatalf("release below the bound did not keep the machine (idle %d -> %d)", n, len(e.free))
		}
	}
	overflow, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.release(overflow)
	if got := len(e.free); got != defaultPoolMaxIdle {
		t.Fatalf("idle after overflow release = %d, want %d (bounded)", got, defaultPoolMaxIdle)
	}
	for _, m := range e.free {
		if m == overflow {
			t.Fatal("the overflow release was kept")
		}
	}
}

// TestPoolNoShareAcrossMemGeometry pins the guard: a configuration with
// a different memory geometry never steals, it builds.
func TestPoolNoShareAcrossMemGeometry(t *testing.T) {
	reg := metrics.New()
	s := NewSuite(11)
	s.Metrics = reg
	cfgA := s.Config
	cfgB := cfgA
	cfgB.MainMemBytes = cfgA.MainMemBytes * 2

	runPoolKernel(t, s, cfgA)
	runPoolKernel(t, s, cfgB)

	if builds := reg.Counter(MetricPoolMisses, "").Value(); builds != 2 {
		t.Fatalf("pool builds = %d, want 2", builds)
	}
	if a, b := idle(s, cfgA), idle(s, cfgB); a != 1 || b != 1 {
		t.Fatalf("idle machines A=%d B=%d, want 1 and 1 (no steal)", a, b)
	}
}

// TestPoolServesOneConfigurationOutsideKernels pins the traffic the
// warm-start layer serves: repeated RunOnce over the ten programs and a
// fast-forwarded campaign over all ten targets draw every machine from
// one pool entry and never share memory across configurations. Only the
// handcrafted kernels (ablations, sweeps), which run other
// configurations, take the cross-configuration path.
func TestPoolServesOneConfigurationOutsideKernels(t *testing.T) {
	reg := metrics.New()
	s := NewSuite(7)
	s.Metrics = reg
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, p := range progs {
			if _, err := s.RunOnce(context.Background(), p.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	c := fault.Campaign{Seed: 7, Sites: 4, Checkpoints: 8, Workers: 2}
	if _, err := c.Run(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	entries := func() int {
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		return len(s.pool.entries)
	}
	builds := reg.Counter(MetricPoolMisses, "")
	served := builds.Value()
	if got := entries(); got != 1 {
		t.Fatalf("serving and a campaign used %d pool entries, want 1", got)
	}

	if _, err := RunAblations(s); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMMVSweep(s); err != nil {
		t.Fatal(err)
	}
	// The kernels ran three more configurations. The suite's own and the
	// 1-wide ablation stole idle machines of their memory geometry; only
	// the single-bank ablation, whose scratchpad geometry differs, built
	// one.
	if got := entries(); got != 4 {
		t.Fatalf("ablations and the sweep left %d pool entries, want 4", got)
	}
	if got := builds.Value() - served; got != 1 {
		t.Fatalf("ablations and the sweep built %d machines, want 1", got)
	}
}
