package main

// The campaign workload: fault.Campaign sweeps run in-process through
// the public bench.Suite / fault.Campaign API over all ten Table III
// targets and all five fault models, fast-forwarding from interval
// checkpoints. Targets are wrapped in a forwarding FastForwardTarget
// that times every site (the per-op latency) and, in a traced run,
// records spans around PrepareCheckpoints, the golden Run and each
// RunSiteBuf under one span per Campaign.Run.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"cambricon/internal/bench"
	"cambricon/internal/fault"
	"cambricon/internal/metrics"
)

const (
	// campaignCheckpoints is camrepro -fault-json's default interval
	// checkpoint count.
	campaignCheckpoints = 8
	// campaignPoolSeed derives the fixed pool of sweep seeds.
	campaignPoolSeed = 7
	// campaignWorkers bounds concurrent site runs: one target at a time,
	// two sites of it at once, sized for a 2-core host.
	campaignWorkers = 2
)

// campaignWorkload sizes the campaign runs.
type campaignWorkload struct {
	// sites is the number of fault sites per target per sweep.
	sites int
	// rate sizes the fixed multiset: sweeps per run are
	// rate x seconds / (sites x targets), rounded, at least one.
	rate float64
	// warmup is the number of untimed sweeps before timing starts.
	warmup int
	// setups is how many cold set-ups a run times (median reported).
	setups int
}

// siteRec is one timed call into a target.
type siteRec struct {
	target     int
	model      fault.Model
	start, end time.Duration // from the log origin
	cycles     int64
}

// siteLog collects the timed calls of one phase. Sites are always
// timed (their durations are the campaign's per-op latency); golden
// runs, checkpoint preparation and sweeps only when traced.
type siteLog struct {
	origin time.Time
	traced bool

	mu       sync.Mutex
	sites    []siteRec
	goldens  []siteRec
	prepares []siteRec
	sweeps   []siteRec
}

func (l *siteLog) now() time.Duration { return time.Since(l.origin) }

func (l *siteLog) add(dst *[]siteRec, r siteRec) {
	l.mu.Lock()
	*dst = append(*dst, r)
	l.mu.Unlock()
}

// timedTarget forwards every call to the wrapped target, timing it.
type timedTarget struct {
	fault.FastForwardTarget
	idx int
	log *siteLog
}

func (t *timedTarget) Run(inj fault.Injector, maxCycles int64) fault.Observation {
	if !t.log.traced || inj != nil {
		return t.FastForwardTarget.Run(inj, maxCycles)
	}
	t0 := t.log.now()
	obs := t.FastForwardTarget.Run(nil, maxCycles)
	t.log.add(&t.log.goldens, siteRec{target: t.idx, start: t0, end: t.log.now(), cycles: obs.Cycles})
	return obs
}

func (t *timedTarget) PrepareCheckpoints(k int) error {
	if !t.log.traced {
		return t.FastForwardTarget.PrepareCheckpoints(k)
	}
	t0 := t.log.now()
	err := t.FastForwardTarget.PrepareCheckpoints(k)
	t.log.add(&t.log.prepares, siteRec{target: t.idx, start: t0, end: t.log.now()})
	return err
}

func (t *timedTarget) RunSiteBuf(f fault.Fault, maxCycles int64, buf []byte) fault.Observation {
	t0 := t.log.now()
	obs := t.FastForwardTarget.RunSiteBuf(f, maxCycles, buf)
	t.log.add(&t.log.sites, siteRec{target: t.idx, model: f.Model, start: t0, end: t.log.now()})
	return obs
}

// campaignSetup is one cold set-up: a fresh suite, its programs, and
// every target's golden run and interval checkpoints, timed through the
// same forwarding wrapper the sweeps use.
type campaignSetup struct {
	reg     *metrics.Registry
	targets []fault.FastForwardTarget
	log     *siteLog
	total   time.Duration
	// unstolen is the host's unstolen share over the set-up.
	unstolen float64
	codegen  time.Duration
	prepare  time.Duration // mean PrepareCheckpoints per target
	peakRSS  float64       // peak RSS over the set-up, MiB
}

func newCampaignSetup(golden map[string]int64) (*campaignSetup, int, error) {
	cs := &campaignSetup{reg: metrics.New()}
	resetPeakRSS()
	host0, t0 := readHostCPU(), time.Now()
	suite := bench.NewSuite(serveSeed)
	suite.Metrics = cs.reg
	if _, err := suite.Programs(); err != nil {
		return nil, 0, err
	}
	cs.codegen = time.Since(t0)
	targets, err := suite.FaultTargets()
	if err != nil {
		return nil, 0, err
	}
	for _, t := range targets {
		ft, ok := t.(fault.FastForwardTarget)
		if !ok {
			return nil, 0, fmt.Errorf("target %s cannot fast-forward", t.Name())
		}
		cs.targets = append(cs.targets, ft)
	}
	wrapped, log := cs.wrap(true)
	log.origin = t0 // the set-up's spans share its clock, codegen included
	failed := 0
	for _, t := range wrapped {
		ft := t.(fault.FastForwardTarget)
		if obs := ft.Run(nil, 0); obs.Err != nil || obs.Cycles != golden[t.Name()] {
			failed++
		}
		if err := ft.PrepareCheckpoints(campaignCheckpoints); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", t.Name(), err)
		}
	}
	cs.total = time.Since(t0)
	cs.unstolen = unstolenShare(host0, readHostCPU())
	if cs.peakRSS, err = procPeakRSS(os.Getpid()); err != nil {
		return nil, 0, err
	}
	cs.log = log
	var prep time.Duration
	for _, p := range log.prepares {
		prep += p.end - p.start
	}
	cs.prepare = prep / time.Duration(len(targets))
	return cs, failed, nil
}

// wrap binds the set-up's targets to a fresh phase log.
func (cs *campaignSetup) wrap(traced bool) ([]fault.Target, *siteLog) {
	log := &siteLog{origin: time.Now(), traced: traced}
	out := make([]fault.Target, len(cs.targets))
	for i, t := range cs.targets {
		out[i] = &timedTarget{FastForwardTarget: t, idx: i, log: log}
	}
	return out, log
}

func (cs *campaignSetup) campaign(seed uint64, sites, checkpoints int) fault.Campaign {
	return fault.Campaign{Seed: seed, Sites: sites, Checkpoints: checkpoints,
		Workers: campaignWorkers, TargetWorkers: 1, Metrics: cs.reg}
}

// sweepResult is one timed phase of sweeps.
type sweepResult struct {
	log     *siteLog
	wall    time.Duration
	sites   int
	first   *fault.Report
	metrics metricSet
	// peakRSS is the highest of the sweeps' peak RSS (MiB).
	peakRSS float64
	// counters are the registry and allocator deltas over the phase.
	converged, ffRuns, restoreBytes, mallocs float64
}

// sweep runs one sweep per seed through the wrapped targets and checks
// every report's golden cycles against the oracle. Each sweep is one
// block of the phase's end-to-end metrics.
func (cs *campaignSetup) sweep(seeds []uint64, sites int, golden map[string]int64, traced bool, rep *report) (*sweepResult, error) {
	targets, log := cs.wrap(traced)
	res := &sweepResult{log: log}
	ff := cs.reg.Counter(fault.MetricFaultFastForward, "")
	conv := cs.reg.Counter(bench.MetricFFConverged, "")
	rb := cs.reg.Counter(bench.MetricRestoreBytes, "")
	var ms0, ms1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	ff0, conv0, rb0 := ff.Value(), conv.Value(), rb.Value()
	host0 := readHostCPU()
	blocks := make([]block, 0, len(seeds))
	var peaks []float64
	begin := log.now()
	for i, seed := range seeds {
		c := cs.campaign(seed, sites, campaignCheckpoints)
		first := len(log.sites)
		resetPeakRSS()
		s0, cpu0, h0 := log.now(), selfCPU(), readHostCPU()
		r, err := c.Run(context.Background(), targets)
		if err != nil {
			return nil, err
		}
		s1, cpu1, h1 := log.now(), selfCPU(), readHostCPU()
		peak, err := procPeakRSS(os.Getpid())
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		if traced {
			log.add(&log.sweeps, siteRec{target: -1, start: s0, end: s1})
		}
		if i == 0 {
			res.first = r
		}
		b := block{wall: s1 - s0, cpu: cpu1 - cpu0, steal: stealShare(h0, h1), busy: busyShare(h0, h1)}
		for _, br := range r.Benchmarks {
			b.ops += len(br.Runs)
			if br.GoldenCycles != golden[br.Name] {
				rep.failed += len(br.Runs)
			}
		}
		for _, st := range log.sites[first:] {
			b.lat = append(b.lat, float64(st.end-st.start)/1e6)
		}
		rep.attempted += b.ops
		res.sites += b.ops
		blocks = append(blocks, b)
	}
	res.wall = log.now() - begin
	host1 := readHostCPU()
	if traced {
		runtime.ReadMemStats(&ms1)
		res.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	}
	res.ffRuns = float64(ff.Value() - ff0)
	res.converged = float64(conv.Value() - conv0)
	res.restoreBytes = float64(rb.Value() - rb0)
	m, err := blockMetrics(blocks)
	if err != nil {
		return nil, err
	}
	res.metrics = m
	res.peakRSS = slices.Max(peaks)
	phase := "timed"
	if traced {
		phase = "traced"
	}
	rep.window(phase, res.wall, stealShare(host0, host1), blocks, -1)
	rep.diag[phase+"_sweep_peak_rss_mb"] = peaks
	return res, nil
}

// runCampaign executes one campaign workload run.
func runCampaign(w campaignWorkload, o *options) (*report, error) {
	rep := newReport()
	golden, err := goldenCycles()
	if err != nil {
		return nil, fmt.Errorf("in-process oracle: %w", err)
	}

	// Set-up, timed several times from a clean heap; the last stays.
	var cs *campaignSetup
	var setups, rawSetups, codegens, prepares, peaks []float64
	for i := 0; i < w.setups; i++ {
		cs = nil
		runtime.GC()
		var failed int
		cs, failed, err = newCampaignSetup(golden)
		if err != nil {
			return nil, err
		}
		rep.attempted += len(cs.targets)
		rep.failed += failed
		rawSetups = append(rawSetups, cs.total.Seconds())
		setups = append(setups, cs.total.Seconds()*cs.unstolen)
		codegens = append(codegens, float64(cs.codegen)/1e6)
		prepares = append(prepares, float64(cs.prepare)/1e6)
		peaks = append(peaks, cs.peakRSS)
	}
	rep.diag["setup_s_raw_samples"] = rawSetups

	// The sweeps are a fixed multiset: campaign seeds come from a pool
	// fixed by the workload, and the run seed only orders them.
	targets := len(cs.targets)
	sweeps := max(1, int(w.rate*float64(o.seconds)/float64(w.sites*targets)+0.5))
	var seeds []uint64
	for _, i := range permutation(sweeps, deriveSeed(o.seed, 2)) {
		seeds = append(seeds, deriveSeed(campaignPoolSeed, uint64(100+i)))
	}
	warm := make([]uint64, w.warmup)
	for i := range warm {
		warm[i] = deriveSeed(campaignPoolSeed, uint64(10+i))
	}
	if _, err := cs.sweep(warm, w.sites, golden, false, newReport()); err != nil {
		return nil, err
	}

	res, err := cs.sweep(seeds, w.sites, golden, false, rep)
	if err != nil {
		return nil, err
	}
	// The replay oracle: the first timed sweep again without
	// checkpoints must produce a byte-identical report.
	if err := cs.replay(seeds[0], w.sites, res.first, rep); err != nil {
		return nil, err
	}
	// peak_rss_mb is the set-up's peak: during the sweeps some faulted
	// sites allocate up to 2 GiB sized by a corrupted register before the
	// access check fails, and whether those pages become resident
	// depends on allocator reuse, so the sweeps' peak is reported as the
	// per-layer fault.sweep_peak_rss_mb instead.
	m := res.metrics
	m.set("peak_rss_mb", median(peaks), "MiB")
	m.set("setup_s", median(setups), "s")
	if !o.trace {
		rep.metrics = m
		return rep, nil
	}

	tr, err := cs.sweep(seeds, w.sites, golden, true, rep)
	if err != nil {
		return nil, err
	}
	rep.overhead(m, tr.metrics)
	lm := rep.metrics
	foldCampaign(tr, lm)
	lm.set("fault.sweep_peak_rss_mb", tr.peakRSS, "MiB")
	lm.set("codegen.programs_ms", median(codegens), "ms")
	lm.set("bench.prepare_checkpoints_ms", median(prepares), "ms")
	rep.spans = campaignSpans(cs, tr.log)
	return rep, nil
}

// replay re-runs one sweep with Checkpoints: 0 — every site replayed
// from the run start on the ordinary observed path — and compares its
// report bytes with the fast-forwarded sweep's. A mismatch counts every
// site of the sweep as failed.
func (cs *campaignSetup) replay(seed uint64, sites int, want *fault.Report, rep *report) error {
	targets := make([]fault.Target, len(cs.targets))
	for i, t := range cs.targets {
		targets[i] = t
	}
	c := cs.campaign(seed, sites, 0)
	got, err := c.Run(context.Background(), targets)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := want.Write(&a); err != nil {
		return err
	}
	if err := got.Write(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		rep.failed += want.Total.Sum()
		rep.diag["replay_mismatch_seed"] = seed
	}
	return nil
}

// goldenCycles is the oracle for every target's golden run:
// Suite.Stats on a separate suite with the same seed.
func goldenCycles() (map[string]int64, error) {
	s := bench.NewSuite(serveSeed)
	progs, err := s.Programs()
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, p := range progs {
		st, err := s.Stats(p.Name)
		if err != nil {
			return nil, err
		}
		out[p.Name] = st.Cycles
	}
	return out, nil
}

// foldCampaign derives the per-layer campaign metrics of a traced phase.
func foldCampaign(r *sweepResult, m metricSet) {
	log := r.log
	var goldenNS, siteNS int64
	for _, g := range log.goldens {
		goldenNS += int64(g.end - g.start)
	}
	var all []float64
	var sum [fault.NumModels]float64
	var cnt [fault.NumModels]int
	for _, s := range log.sites {
		d := float64(s.end-s.start) / 1e6
		siteNS += int64(s.end - s.start)
		all = append(all, d)
		sum[s.model] += d
		cnt[s.model]++
	}
	var transient float64
	var nt int
	for mdl := fault.Model(0); mdl < fault.NumModels; mdl++ {
		if mdl != fault.ModelStuckLane {
			transient += sum[mdl]
			nt += cnt[mdl]
		}
	}
	n := float64(r.sites)
	m.set("fault.golden_ms", float64(goldenNS)/1e6/float64(max(len(log.goldens), 1)), "ms")
	m.set("fault.site_ms.p50", percentile(all, 0.5), "ms")
	m.set("fault.site_ms.p90", percentile(all, 0.9), "ms")
	m.set("fault.site_transient_ms", transient/float64(max(nt, 1)), "ms")
	m.set("fault.site_stuck_lane_ms", sum[fault.ModelStuckLane]/float64(max(cnt[fault.ModelStuckLane], 1)), "ms")
	m.set("fault.ff_converged_ratio", r.converged/max(r.ffRuns, 1), "ratio")
	m.set("bench.restore_kib_per_site", r.restoreBytes/1024/n, "KiB")
	busy := float64(goldenNS+siteNS) / (float64(r.wall) * campaignWorkers)
	m.set("fault.unattributed_share", 1-busy, "ratio")
	m.set("go.allocs_per_site", r.mallocs/n, "count")
}

// campaignSpan is one span of the campaign spans file.
type campaignSpan struct {
	span
	Target string `json:"target,omitempty"`
	Model  string `json:"model,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
}

// campaignSpans renders span trees: the kept set-up (golden runs and
// checkpoint preparation, on the set-up's clock), then one tree per
// Campaign.Run of the traced phase with its golden runs and sites.
func campaignSpans(cs *campaignSetup, log *siteLog) [][]campaignSpan {
	tree := func(root string, start, end time.Duration, l *siteLog) []campaignSpan {
		spans := []campaignSpan{{span: span{root, -1, int64(start), int64(end)}}}
		add := func(name string, r siteRec, model string) {
			if r.start >= start && r.end <= end {
				spans = append(spans, campaignSpan{span{name, 0, int64(r.start), int64(r.end)},
					cs.targets[r.target].Name(), model, r.cycles})
			}
		}
		for _, p := range l.prepares {
			add("fault.prepare_checkpoints", p, "")
		}
		for _, g := range l.goldens {
			add("fault.golden", g, "")
		}
		for _, st := range l.sites {
			add("fault.site", st, st.model.String())
		}
		return spans
	}
	setup := tree("campaign.setup", 0, cs.total, cs.log)
	setup = append(setup, campaignSpan{span: span{"codegen.programs", 0, 0, int64(cs.codegen)}})
	out := [][]campaignSpan{setup}
	for _, sw := range log.sweeps {
		out = append(out, tree("fault.campaign", sw.start, sw.end, log))
	}
	return out
}
