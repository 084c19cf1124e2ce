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
	// run's liveness (last-read schedule) and golden its observation,
	// both recorded during the same preparation pass — together they let
	// RunSiteBuf prove mid-run convergence and return the golden result
	// without simulating a faulted run's suffix. All three are immutable
	// and shared by every campaign worker; lv/golden may be nil (the
	// early exit then simply never triggers).
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

// ffDMAHop is the observed-segment length RunSiteBuf hops in while
// waiting for a windowed dma-bit fault (first transfer at or after At)
// to land: short enough that the observed fraction of the run stays
// negligible, long enough that segment overhead does not.
const ffDMAHop = 256

// PrepareCheckpoints captures k evenly spaced mid-run checkpoints of the
// fault-free run (plus the run-start snapshot), for RunSiteBuf to
// fast-forward from. Requires the suite's warm-start layer — without
// pooled machines and prepared snapshots there is nothing to restore
// onto — and reports any simulation failure, which the campaign treats
// as "fall back to the ordinary path".
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
	gobs := t.finish(m, st, nil, true, nil)
	golden := &gobs
	if gobs.Err != nil {
		golden = nil
	}
	lv, lverr := rec.Liveness(t.suite.runConfig(0))
	if lverr != nil {
		// Convergence exits are an optimization: without a usable trace
		// the checkpoints still fast-forward the fault-free prefix.
		lv = nil
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
		ckpts = append(ckpts, m.Checkpoint())
		last = at
	}
	return ckpts, lv, golden, nil
}

// RunSiteBuf is RunBuf for one fault site, fast-forwarded: restore the
// nearest prepared checkpoint at or before the site's firing index,
// simulate the fault-free prefix on the unobserved hot path, attach an
// injector only for the firing window, and run the faulted remainder
// unobserved — stopping at the first checkpoint boundary where the run
// provably converges with the golden run (ConvergedWith), whose stored
// observation is then the result. The observation is bit-identical to
// RunBuf with the same site — the simulator guarantees any interleaving
// of restores and run segments matches the uninterrupted run, the
// transient models by construction do nothing before their site index,
// and a proven convergence implies an identical remainder (same
// instructions, timing and outputs).
func (t *faultTarget) RunSiteBuf(f fault.Fault, maxCycles int64, buf []byte) (obs fault.Observation) {
	t.ckptMu.Lock()
	ckpts, lv, golden := t.ckpts, t.lv, t.golden
	t.ckptMu.Unlock()
	if f.Model == fault.ModelStuckLane || len(ckpts) == 0 {
		// Whole-run faults have no fault-free prefix to skip (and without
		// prepared checkpoints there is nothing to fast-forward from).
		return t.RunBuf(fault.New(f), maxCycles, buf)
	}
	defer func() {
		if r := recover(); r != nil {
			obs.Crashed = true
			obs.Err = fmt.Errorf("bench: %s: panic: %v", t.b.prog.Name, r)
		}
	}()
	// target is the dynamic index of the firing instruction: At for the
	// point models; for dma-bit — which fires at the first offered
	// payload at or after At — the golden run's first transfer there.
	target := f.At
	haveOffer := false
	if f.Model == fault.ModelDMABit && lv != nil {
		offer, ok := lv.DMAOfferAfter(f.At)
		if !ok && golden != nil {
			// The golden run offers no DMA payload at or after the site:
			// the fault can never fire, so the run is the golden run.
			t.suite.sm().ffConverged()
			return goldenObservation(golden, buf)
		}
		if ok {
			target, haveOffer = offer, true
		}
	}
	// Nearest checkpoint at or before the firing index (ckpts ascend).
	best := ckpts[0]
	for _, s := range ckpts[1:] {
		if s.Instructions() > target {
			break
		}
		best = s
	}
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
	// Phase 2: the firing window, observed. Every resumed segment re-arms
	// the injector (BeginRun), so detaching promptly once the fault has
	// fired is what keeps one-shot semantics identical to RunBuf's single
	// attached run.
	if err == nil && !done {
		inj := fault.New(f)
		m.SetInjector(inj)
		// spad/gpr/fetch fire exactly at At, dma-bit with a known offer at
		// the offer: one observed instruction. Without a liveness trace the
		// dma firing index is unknown — hop forward in short observed
		// segments until the fault lands or the run ends (also the
		// defensive fallback should a predicted offer not fire).
		if f.Model != fault.ModelDMABit || haveOffer {
			stats, done, err = m.RunUntil(target + 1)
		}
		if f.Model == fault.ModelDMABit {
			for err == nil && !done && !inj.Fired() {
				stats, done, err = m.RunUntil(stats.Instructions + ffDMAHop)
			}
		}
		m.SetInjector(nil)
	}
	// Phase 3: faulted remainder, unobserved. At each later checkpoint
	// boundary, try to prove convergence with the golden run; the proof's
	// retry hint skips boundaries where a still-live location is known to
	// keep the check failing, and a hard divergence stops checking.
	if err == nil && !done && lv != nil && golden != nil {
		retryAt := int64(0)
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
			retryAt = retry
		}
	}
	if err == nil && !done {
		stats, err = m.Resume()
	}
	return t.finish(m, stats, err, false, buf)
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
