package bench

// Tests pinning the machine pool's cross-configuration memory sharing:
// a pool miss for one architectural configuration steals an idle machine
// pooled under another configuration with the same memory geometry and
// Reconfigures it, and the reconfigured machine is indistinguishable
// from a freshly built one.

import (
	"reflect"
	"testing"

	"cambricon/internal/asm"
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
// share one machine, the share is counted, and the reconfigured
// machine's statistics are bit-identical to a fresh build's.
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

	if got := s.PoolMemShared(); got != 1 {
		t.Fatalf("PoolMemShared = %d, want 1", got)
	}
	if got := reg.Counter(MetricPoolMemShared, "").Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricPoolMemShared, got)
	}
	builds, _ := s.PoolStats()
	if builds != 1 {
		t.Fatalf("pool builds = %d, want 1 (second config must share)", builds)
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
	if got := s.PoolMemShared(); got != 2 {
		t.Fatalf("PoolMemShared after round trip = %d, want 2", got)
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
	m1, reused, _, err := p.acquire(cfg)
	if err != nil || reused {
		t.Fatalf("first acquire: reused=%v err=%v, want fresh build", reused, err)
	}
	m2, _, _, err := p.acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.release(m1)
	p.release(m2)
	if got := len(e.free); got != 2 {
		t.Fatalf("idle after two releases = %d, want 2", got)
	}
	if m, reused, _, _ := p.acquire(cfg); !reused || m != m2 {
		t.Fatalf("LIFO reuse: got %p reused=%v, want most recently released %p", m, reused, m2)
	}

	// Fill the free list to capacity by releasing fresh machines, then
	// overflow by one: the overflow release is dropped and counted.
	for len(e.free) < defaultPoolMaxIdle {
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.release(m)
	}
	if got := p.drops.Load(); got != 0 {
		t.Fatalf("drops while filling = %d, want 0", got)
	}
	overflow, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.release(overflow)
	if got := len(e.free); got != defaultPoolMaxIdle {
		t.Fatalf("idle after overflow release = %d, want %d (bounded)", got, defaultPoolMaxIdle)
	}
	if got := p.drops.Load(); got != 1 {
		t.Fatalf("drops = %d, want 1", got)
	}
}

// TestPoolNoShareAcrossMemGeometry pins the guard: a configuration with
// a different memory geometry never steals, it builds.
func TestPoolNoShareAcrossMemGeometry(t *testing.T) {
	s := NewSuite(11)
	cfgA := s.Config
	cfgB := cfgA
	cfgB.MainMemBytes = cfgA.MainMemBytes * 2

	runPoolKernel(t, s, cfgA)
	runPoolKernel(t, s, cfgB)

	if got := s.PoolMemShared(); got != 0 {
		t.Fatalf("PoolMemShared = %d, want 0 across memory geometries", got)
	}
	builds, _ := s.PoolStats()
	if builds != 2 {
		t.Fatalf("pool builds = %d, want 2", builds)
	}
}
