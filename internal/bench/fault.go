package bench

// This file is the fault-campaign adapter: it exposes the Table III
// benchmarks as fault.Target implementations so fault.Campaign can
// sweep injected faults across the same programs the performance
// experiments run.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cambricon/internal/core"
	"cambricon/internal/fault"
	"cambricon/internal/sim"
)

// FaultTargets exposes the benchmark programs as fault-campaign
// targets. Each run draws its machine through the suite's warm-start
// layer (a pooled machine restored from the benchmark's post-Init
// snapshot; a fresh build in a cold suite) configured exactly like the
// performance runs: same Table II machine, same derived seed. Machines
// are never shared between concurrent campaign workers.
func (s *Suite) FaultTargets() ([]fault.Target, error) {
	progs, err := s.Programs()
	if err != nil {
		return nil, err
	}
	targets := make([]fault.Target, len(progs))
	for i, p := range progs {
		targets[i] = &faultTarget{suite: s, b: s.byName[p.Name]}
	}
	return targets, nil
}

// faultTarget adapts one generated benchmark to fault.Target (and
// fault.BufferedTarget, fault.FastForwardTarget).
type faultTarget struct {
	suite *Suite
	b     *benchmark

	// ckpts are the interval checkpoints of the fault-free run prepared
	// by PrepareCheckpoints, ascending by dynamic instruction index;
	// index 0 is the run-start (prepared) snapshot. lv is the golden
	// run's liveness (last-read, DMA-offer and lane-reach schedules) and
	// golden its observation, both recorded during the same preparation
	// pass — together they let RunSiteBuf predict where a dma-bit or
	// stuck-lane fault first acts, prove mid-run convergence and return
	// the golden result without simulating a faulted run's suffix. All
	// three are immutable and shared by every campaign worker, and set
	// together or not at all.
	ckptMu  sync.Mutex
	ckptK   int
	ckpts   []*sim.Snapshot
	lv      *sim.Liveness
	golden  *fault.Observation
	ckptErr error
}

func (t *faultTarget) Name() string { return t.b.prog.Name }

// Run executes the benchmark once under the given injector.
func (t *faultTarget) Run(inj fault.Injector, maxCycles int64) fault.Observation {
	return t.RunBuf(inj, maxCycles, nil)
}

// RunBuf is Run with an optional output buffer: when buf has capacity it
// backs Observation.Output, so a campaign worker that is done comparing
// the previous observation's output can recycle the bytes instead of
// allocating ~2N per faulted run. Per the fault.Target contract it never
// panics (a panic is reported as a crash), marks watchdog terminations
// as hangs, and fills Geometry so the campaign can derive fault sites
// from the golden run.
func (t *faultTarget) RunBuf(inj fault.Injector, maxCycles int64, buf []byte) (obs fault.Observation) {
	defer func() {
		if r := recover(); r != nil {
			obs.Crashed = true
			obs.Err = fmt.Errorf("bench: %s: panic: %v", t.b.prog.Name, r)
		}
	}()
	m, pooled, err := t.suite.preparedMachine(context.Background(), t.b, maxCycles)
	if err != nil {
		obs.Err = err
		return obs
	}
	defer t.suite.releaseMachine(m, pooled)
	m.SetInjector(inj)
	stats, err := m.Run()
	return t.finish(m, stats, err, inj == nil, buf)
}

// finish assembles the observation of a completed (or failed) run: the
// final counters, the site-space geometry, hang/detection classification
// and the serialized output regions (codegen.Program.Output). golden
// additionally checks the outputs against the suite's record
// (benchmark.checkOutput): a wrong golden output would poison every
// classification.
func (t *faultTarget) finish(m *sim.Machine, stats sim.Stats, err error, golden bool, buf []byte) (obs fault.Observation) {
	cfg := &t.suite.Config
	obs.Cycles = stats.Cycles
	obs.Instructions = stats.Instructions
	obs.Geometry = fault.Geometry{
		Instructions:    stats.Instructions,
		GPRs:            core.NumGPRs,
		VectorSpadWords: cfg.VectorSpadBytes / 2,
		MatrixSpadWords: cfg.MatrixSpadBytes / 2,
		VectorLanes:     cfg.VectorLanes,
		MatrixLanes:     cfg.MatrixBlocks * cfg.MACsPerBlock,
	}
	if err != nil {
		var we *sim.WatchdogError
		if errors.As(err, &we) {
			obs.Hung = true
		}
		obs.Err = err
		return obs
	}
	if golden {
		if _, err := t.b.checkOutput(m); err != nil {
			obs.Err = err
			return obs
		}
	}
	obs.Output, obs.Err = t.b.prog.Output(m, buf)
	return obs
}

// PrepareCheckpoints captures k evenly spaced mid-run checkpoints of the
// fault-free run (plus the run-start snapshot), for RunSiteBuf to
// fast-forward from. Requires the suite's warm-start layer — without
// pooled machines and prepared snapshots there is nothing to restore
// onto — and reports any simulation failure, a golden output that fails
// its check, or a run whose liveness cannot be derived, all of which
// the campaign treats as "fall back to the ordinary path".
func (t *faultTarget) PrepareCheckpoints(k int) error {
	if k <= 0 {
		return fmt.Errorf("bench: %s: checkpoint count %d must be positive", t.b.prog.Name, k)
	}
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	if t.ckptK == k && (t.ckpts != nil || t.ckptErr != nil) {
		return t.ckptErr
	}
	t.ckptK = k
	t.ckpts, t.lv, t.golden, t.ckptErr = t.buildCheckpoints(k)
	return t.ckptErr
}

func (t *faultTarget) buildCheckpoints(k int) ([]*sim.Snapshot, *sim.Liveness, *fault.Observation, error) {
	if t.suite.cold {
		return nil, nil, nil, fmt.Errorf("bench: %s: checkpoint fast-forwarding requires the warm-start layer", t.b.prog.Name)
	}
	ctx := context.Background()
	m, pooled, err := t.suite.preparedMachine(ctx, t.b, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	defer t.suite.releaseMachine(m, pooled)
	// Sizing-and-recording pass: the checkpoint spacing needs the
	// fault-free run's dynamic instruction count, and the convergence
	// early exit needs the golden run's access trace and final
	// observation. Recording is behaviour-neutral, so the statistics —
	// and hence the checkpoint boundaries — match the unobserved run.
	rec := sim.NewAccessTrace()
	m.SetAccessTrace(rec)
	st, err := m.Run()
	m.SetAccessTrace(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	golden := t.finish(m, st, nil, true, nil)
	if golden.Err != nil {
		return nil, nil, nil, fmt.Errorf("bench: %s: golden run: %w", t.b.prog.Name, golden.Err)
	}
	lv, err := rec.Liveness(t.suite.runConfig(0))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("bench: %s: golden liveness: %w", t.b.prog.Name, err)
	}
	n := st.Instructions
	start, err := t.suite.preparedSnapshot(ctx, t.b)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.Restore(start); err != nil {
		return nil, nil, nil, err
	}
	ckpts := make([]*sim.Snapshot, 0, k+1)
	ckpts = append(ckpts, start)
	last := int64(0)
	for i := 1; i <= k; i++ {
		at := n * int64(i) / int64(k+1)
		if at <= last {
			continue
		}
		_, done, err := m.RunUntil(at)
		if err != nil {
			return nil, nil, nil, err
		}
		if done {
			break
		}
		ckpts = append(ckpts, m.Snapshot())
		last = at
	}
	return ckpts, lv, &golden, nil
}

// RunSiteBuf is RunBuf for one fault site, fast-forwarded: return the
// golden observation without a machine when the golden run's schedules
// show the fault never acts (Liveness.Inert, a dma-bit site past the last
// DMA offer, a stuck lane no output reaches); otherwise restore the
// nearest prepared checkpoint at or before the first instruction the
// fault can change, simulate the fault-free prefix on the unobserved hot
// path, attach the injector — for the firing instruction of a transient
// model, for the rest of the run of a stuck lane — and run the faulted
// remainder unobserved, stopping at the first checkpoint boundary where
// the run provably converges with the golden run (ConvergedWith), whose
// stored observation is then the result. The observation is
// bit-identical to RunBuf with the same site: the simulator guarantees
// any interleaving of restores and run segments matches the
// uninterrupted run, a fault changes nothing before that first
// instruction (a transient's site index, a dma-bit fault's next golden
// DMA offer, a stuck lane's first golden output reach), and a proven
// convergence implies an identical remainder (same instructions, timing
// and outputs) — for a stuck lane only at a boundary past the lane's
// last golden output reach, after which the stuck lane is inert in that
// remainder.
func (t *faultTarget) RunSiteBuf(f fault.Fault, maxCycles int64, buf []byte) (obs fault.Observation) {
	t.ckptMu.Lock()
	ckpts, lv, golden := t.ckpts, t.lv, t.golden
	t.ckptMu.Unlock()
	if len(ckpts) == 0 {
		// Without prepared checkpoints there is nothing to fast-forward
		// from.
		inj := t.suite.injector(f)
		defer t.suite.injectors.Put(inj)
		return t.RunBuf(inj, maxCycles, buf)
	}
	defer func() {
		if r := recover(); r != nil {
			obs.Crashed = true
			obs.Err = fmt.Errorf("bench: %s: panic: %v", t.b.prog.Name, r)
		}
	}()
	// target is the dynamic index of the first instruction the fault can
	// change: At for the point models; for dma-bit — which fires at the
	// first offered payload at or after At — the golden run's first
	// transfer there, which the fault-free prefix offers identically; for
	// a stuck lane the golden run's first output that reaches the lane.
	// floor is the earliest checkpoint boundary a convergence proof may
	// be tried at: past a stuck lane's last golden reach, where the
	// golden remainder gives the lane nothing to change.
	target, floor := f.At, int64(0)
	switch f.Model {
	case fault.ModelSpadBit, fault.ModelGPRBit, fault.ModelFetchBit:
		if lv.Inert(f) {
			// The flip lands in a location the golden run never reads
			// again, or leaves the fetched instruction as it was: the run
			// is the golden run.
			t.suite.sm().ffConverged()
			return goldenObservation(golden, buf)
		}
	case fault.ModelDMABit:
		offer, ok := lv.DMAOfferAfter(f.At)
		if !ok {
			// The golden run offers no DMA payload at or after the site:
			// the fault can never fire, so the run is the golden run.
			t.suite.sm().ffConverged()
			return goldenObservation(golden, buf)
		}
		target = offer
	case fault.ModelStuckLane:
		first, last, ok := lv.LaneReach(f.Unit, f.Lane)
		if !ok {
			// No golden output reaches the lane: the stuck bit is never
			// applied, so the run is the golden run.
			t.suite.sm().ffConverged()
			return goldenObservation(golden, buf)
		}
		target, floor = first, last+1
	}
	// Nearest checkpoint at or before the firing index (ckpts ascend).
	best := ckpts[0]
	for _, s := range ckpts[1:] {
		if s.Instructions() > target {
			break
		}
		best = s
	}
	// Deferred before the machine's release, which detaches the
	// injector, so the injector goes back to the pool unattached.
	inj := t.suite.injector(f)
	defer t.suite.injectors.Put(inj)
	// Restoring the checkpoint directly skips the prepared-snapshot
	// restore preparedMachine performs, which the checkpoint would
	// overwrite anyway.
	m, err := t.suite.restoredMachine(context.Background(), best, maxCycles)
	if err != nil {
		obs.Err = err
		return obs
	}
	defer t.suite.releaseMachine(m, true)
	stats := best.Stats()
	done := false
	// Phase 1: fault-free prefix, unobserved.
	if target > stats.Instructions {
		stats, done, err = m.RunUntil(target)
	}
	// Phase 2: attach the injector. A stuck lane stays attached to the
	// end of the run. A transient is observed for its firing instruction
	// only: every resumed segment re-arms the injector (BeginRun), so
	// detaching it once the fault has fired is what keeps one-shot
	// semantics identical to RunBuf's single attached run.
	if err == nil && !done {
		m.SetInjector(inj)
		if f.Model != fault.ModelStuckLane {
			stats, done, err = m.RunUntil(target + 1)
			m.SetInjector(nil)
		}
	}
	// Phase 3: faulted remainder, unobserved. At each checkpoint boundary
	// from floor on, try to prove convergence with the golden run; the
	// proof's retry hint skips boundaries where a still-live location is
	// known to keep the check failing (it never lowers floor), and a hard
	// divergence stops checking.
	if err == nil && !done {
		retryAt := floor
		for _, s := range ckpts {
			j := s.Instructions()
			if j <= stats.Instructions || j < retryAt {
				continue
			}
			stats, done, err = m.RunUntil(j)
			if err != nil || done {
				break
			}
			conv, retry := m.ConvergedWith(s, lv)
			if conv {
				t.suite.sm().ffConverged()
				return goldenObservation(golden, buf)
			}
			if retry == 0 {
				break
			}
			retryAt = max(retryAt, retry)
		}
	}
	if err == nil && !done {
		stats, err = m.Resume()
	}
	return t.finish(m, stats, err, false, buf)
}

// injector returns an injector aimed at f: one from the suite's pool,
// retargeted, or a new one. Return it with s.injectors.Put once no
// machine holds it.
func (s *Suite) injector(f fault.Fault) *fault.Single {
	if inj, ok := s.injectors.Get().(*fault.Single); ok {
		inj.Retarget(f)
		return inj
	}
	return fault.New(f)
}

// goldenObservation copies the stored fault-free observation, backing
// its output with buf (grown as needed) per the RunSiteBuf buffer
// contract: a converged run's cycles, instruction count and outputs are
// provably those of the golden run, and the stored observation is
// shared across workers so its output bytes must not be handed out.
func goldenObservation(g *fault.Observation, buf []byte) fault.Observation {
	obs := *g
	if cap(buf) < len(g.Output) {
		buf = make([]byte, len(g.Output))
	}
	buf = buf[:len(g.Output)]
	copy(buf, g.Output)
	obs.Output = buf
	return obs
}
