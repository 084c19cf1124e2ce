package sim

// Golden-run access tracing and convergence proofs — the machinery that
// turns fault-site fast-forwarding from "skip the fault-free prefix"
// into "stop simulating as soon as the faulted run provably rejoins the
// golden run" (docs/PERF.md, Level 5).
//
// A transient fault that ends up masked usually perturbs almost
// nothing: one scratchpad word or one register holds a corrupted value
// that the rest of the program never reads again, while every byte the
// program does read — and the whole pipeline timing state — re-converges
// with the fault-free run within a few hundred instructions. Replaying
// the faulted remainder to the end is then pure waste. AccessTrace
// records, once per prepared target, which locations the golden run
// reads at which dynamic instruction index; Liveness condenses that into
// a read end per register and per scratchpad word, the index just past
// its last read. At any later checkpoint boundary, Machine.ConvergedWith
// can compare a faulted machine against the golden checkpoint and
// prove: every location that
// still differs is one the golden run never reads again, and everything
// else — PC, PRNG, statistics, pipeline timing, main memory — is equal.
// From that boundary on, the faulted run and the golden run commit the
// same instructions with the same timing and produce the same outputs,
// so the fault-free run's observation can be returned without simulating
// the suffix.
//
// A stuck lane is not transient: it forces its bit on every output of
// its unit that is long enough to reach the lane. The same recording
// pass therefore notes, at the point where applyStuck makes that
// decision, each unit output's dynamic index and length, and Liveness
// condenses them into the first and last index at which an output
// reaches each lane (LaneReach). Before the first reach the stuck lane
// has changed nothing, so the faulted run is the golden run; a lane no
// output reaches leaves the whole run golden; and a proof at a boundary
// after the last reach also covers the injector still attached, because
// the proven-identical remainder is the golden one, whose outputs never
// reach the lane again.
//
// Soundness rests on the access sets the execution core already reports
// to the timing model: the memory-dependence and register-scoreboard
// logic require every operand read and write region, so the recorded
// trace covers every architectural read. The differential campaign tests
// (byte-identical reports with fast-forwarding on and off, across
// benchmarks, seeds and fault models) pin the proof against the
// implementation.

import (
	"fmt"
	"math"
	"slices"

	"cambricon/internal/core"
	"cambricon/internal/fault"
	"cambricon/internal/mem"
)

// accessRec is one dynamic instruction of a recorded golden run: its
// source scalar registers and its memory access regions, exactly as
// reported to the timing model.
type accessRec struct {
	acc  accessSet
	nSrc uint8
	src  [6]uint8
}

// AccessTrace records the architectural reads and writes of one complete
// run, dynamic instruction by dynamic instruction. Attach it with
// Machine.SetAccessTrace before a full run (from index 0); the recorded
// run's statistics stay bit-identical to an unobserved run. An
// AccessTrace is not safe for concurrent use while recording; once
// condensed into a Liveness it is no longer needed.
type AccessTrace struct {
	recs []accessRec
	// words holds each dynamic instruction's fetched 64-bit encoding,
	// the word a fetch-bit fault at that index corrupts.
	words []uint64
	// dma holds the dynamic indices of instructions that offer an
	// in-flight DMA payload to an attached injector (transfers with a
	// non-empty payload), ascending.
	dma []int64
	// outs holds, per fault.Unit, every output the unit produced, in
	// dynamic-index order (see reach).
	outs [2][]unitOut
	// bad marks a recording that did not start at instruction 0 or
	// skipped indices (e.g. attached mid-run); Liveness refuses it.
	bad bool
}

// NewAccessTrace returns an empty trace ready to record one run.
func NewAccessTrace() *AccessTrace { return &AccessTrace{} }

// SetAccessTrace attaches an access-trace recorder (nil detaches it).
// While attached, runs append one record per committed instruction;
// like tracers and injectors, the recorder never changes simulated
// statistics, cycles or behaviour.
func (m *Machine) SetAccessTrace(t *AccessTrace) { m.rec = t }

// record appends one committed instruction, fetched as word. idx is its
// dynamic index (stats.Instructions after the increment, minus one).
func (t *AccessTrace) record(idx int64, word uint64, src []uint8, e *effect) {
	if idx != int64(len(t.recs)) {
		t.bad = true
		return
	}
	r := accessRec{acc: e.acc}
	r.nSrc = uint8(len(src))
	copy(r.src[:], src)
	t.recs = append(t.recs, r)
	t.words = append(t.words, word)
	if e.isDMA && e.dmaBytes > 0 {
		t.dma = append(t.dma, idx)
	}
}

// unitOut is one functional-unit output of a recorded run: the dynamic
// index that produced it and its length in elements.
type unitOut struct {
	idx int64
	n   int
}

// reach records that the instruction at dynamic index idx produced an
// output of n elements on unit. applyStuck calls it at the point where
// it decides whether a stuck lane is below len(out), so the recorded
// reach is exactly the set of instructions a stuck-lane fault can
// change.
func (t *AccessTrace) reach(unit fault.Unit, idx int64, n int) {
	t.outs[unit] = append(t.outs[unit], unitOut{idx, n})
}

// laneSpan is the first and last dynamic index at which a golden-run
// output reaches one lane.
type laneSpan struct {
	first, last int64
}

// pageWrite is one memory write of the golden run: the dynamic index it
// committed at, the memory it wrote and the page range it covered.
type pageWrite struct {
	idx    int64
	sp     space
	lo, hi int32 // inclusive page range
}

// Liveness is the condensed read schedule of a recorded golden run: for
// every scalar register and every 16-bit scratchpad word, its read end,
// the dynamic instruction index just past the last one that reads it (0
// = never read, so a zeroed array starts as "never read"); plus the
// run's fetched words, its DMA-offer indices, its lane-reach schedule
// (LaneReach) and its write schedule, the pages each instruction wrote
// in each of the three memories. A location whose read end is at or
// before boundary j is dead at j: a faulted run whose state differs from
// the golden run only in dead locations commits an identical remainder.
// A Liveness is immutable and safe to share across campaign workers.
type Liveness struct {
	gprEnd [core.NumGPRs]int64
	// vspadEnd and mspadEnd hold a read end per 16-bit word of each
	// scratchpad, as int32: they span every word of both pads, so their
	// width is most of a Liveness's size.
	vspadEnd []int32
	mspadEnd []int32
	words    []uint64
	dma      []int64
	writes   []pageWrite
	// lanes holds, per fault.Unit, the reach of each lane an output ever
	// reaches, indexed by lane; the lanes past its end are never reached.
	// unitLanes is each unit's lane count, the modulus of a stuck lane.
	lanes     [2][]laneSpan
	unitLanes [2]int
}

// Liveness condenses the recorded run against the machine geometry it
// was recorded on. It fails when the trace is unusable (recording did
// not cover a complete run from instruction 0) or longer than an int32
// read end can number.
func (t *AccessTrace) Liveness(cfg Config) (*Liveness, error) {
	if t.bad {
		return nil, fmt.Errorf("sim: access trace did not cover a complete run from instruction 0")
	}
	if len(t.recs) > math.MaxInt32 {
		return nil, fmt.Errorf("sim: access trace of %d instructions is longer than the %d a liveness indexes", len(t.recs), math.MaxInt32)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lv := &Liveness{
		vspadEnd: make([]int32, cfg.VectorSpadBytes/2),
		mspadEnd: make([]int32, cfg.MatrixSpadBytes/2),
		words:    t.words,
		dma:      t.dma,
	}
	for u, outs := range t.outs {
		lv.unitLanes[u] = cfg.unitLanes(fault.Unit(u))
		lv.lanes[u] = laneSpans(outs, lv.unitLanes[u])
	}
	for i := range t.recs {
		r := &t.recs[i]
		idx := int64(i)
		end := idx + 1 // fits an int32: the trace is at most MaxInt32 long
		for _, s := range r.src[:r.nSrc] {
			lv.gprEnd[int(s)%core.NumGPRs] = end
		}
		for _, a := range r.acc.list() {
			if a.reg.N <= 0 {
				continue
			}
			if a.write {
				lv.writes = append(lv.writes, pageWrite{
					idx: idx,
					sp:  a.sp,
					lo:  int32(a.reg.Addr / mem.PageBytes),
					hi:  int32((a.reg.Addr + a.reg.N - 1) / mem.PageBytes),
				})
				continue
			}
			if a.sp == spaceMain {
				continue
			}
			ends := lv.vspadEnd
			if a.sp == spaceMat {
				ends = lv.mspadEnd
			}
			lo, hi := a.reg.Addr/2, (a.reg.Addr+a.reg.N-1)/2
			if lo < 0 {
				lo = 0
			}
			if hi >= len(ends) {
				hi = len(ends) - 1
			}
			for w := lo; w <= hi; w++ {
				ends[w] = int32(end)
			}
		}
	}
	return lv, nil
}

// laneSpans condenses one unit's outputs into the reach of each lane.
// An output of n elements reaches lanes 0 to min(n, lanes)-1, a prefix,
// so the first reaches ascend with the lane and the last reaches
// descend: one pass forward and one backward, each keeping the widest
// output so far, fill them in.
func laneSpans(outs []unitOut, lanes int) []laneSpan {
	var spans []laneSpan
	for _, o := range outs {
		for len(spans) < min(o.n, lanes) {
			spans = append(spans, laneSpan{first: o.idx})
		}
	}
	reached := 0
	for i := len(outs) - 1; i >= 0 && reached < len(spans); i-- {
		for ; reached < min(outs[i].n, lanes); reached++ {
			spans[reached].last = outs[i].idx
		}
	}
	return spans
}

// LaneReach returns the first and last dynamic index at which a golden-run
// output of unit reaches lane, and false when no output reaches it. The
// lane is reduced modulo the unit's lane count, as applyStuck reduces a
// stuck lane. A stuck lane changes nothing at an instruction whose
// output does not reach it: the faulted run is the golden run up to
// first (all of it when no output reaches the lane), and a convergence
// proof at a boundary after last holds with the stuck lane still
// attached.
func (lv *Liveness) LaneReach(unit fault.Unit, lane int) (first, last int64, ok bool) {
	if int(unit) >= len(lv.lanes) {
		return 0, 0, false
	}
	spans := lv.lanes[unit]
	if len(spans) == 0 {
		return 0, 0, false
	}
	l := laneIndex(lane, lv.unitLanes[unit])
	if l >= len(spans) {
		return 0, 0, false
	}
	return spans[l].first, spans[l].last, true
}

// Inert reports whether the transient fault f provably leaves the run
// golden: a spad-bit or gpr-bit flip of a location the golden run last
// reads before f.At (the deadness rule ConvergedWith applies at
// checkpoint boundaries), or a fetch-bit flip of a word that still
// decodes to the instruction the golden run fetched at f.At. Stuck lanes,
// dma-bit faults, flips of words outside the scratchpad and fetches
// outside the recorded run are never inert.
func (lv *Liveness) Inert(f fault.Fault) bool {
	switch f.Model {
	case fault.ModelSpadBit:
		ends := lv.vspadEnd
		if f.Space == fault.SpaceMatrix {
			ends = lv.mspadEnd
		}
		return f.Word >= 0 && f.Word < len(ends) && int64(ends[f.Word]) <= f.At
	case fault.ModelGPRBit:
		return lv.gprEnd[int(f.Reg)%core.NumGPRs] <= f.At
	case fault.ModelFetchBit:
		if f.At < 0 || f.At >= int64(len(lv.words)) {
			return false
		}
		w := lv.words[f.At]
		golden, err := core.Decode(w)
		if err != nil {
			return false
		}
		flipped, err := core.Decode(w ^ 1<<(f.Bit%64))
		return err == nil && flipped == golden
	}
	return false
}

// DMAOfferAfter returns the dynamic index of the golden run's first DMA
// payload offer at or after at, and whether one exists. A dma-bit fault
// site whose At has no offer at or after it can never fire: the faulted
// run is the golden run.
func (lv *Liveness) DMAOfferAfter(at int64) (int64, bool) {
	lo, hi := 0, len(lv.dma)
	for lo < hi {
		mid := (lo + hi) / 2
		if lv.dma[mid] < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(lv.dma) {
		return 0, false
	}
	return lv.dma[lo], true
}

// appendWrittenPages appends every page of memory sp the golden run
// writes in dynamic index range [from, to). A page may repeat, though
// not twice in a row.
func (lv *Liveness) appendWrittenPages(buf []int, sp space, from, to int64) []int {
	lo, hi := 0, len(lv.writes)
	for lo < hi {
		mid := (lo + hi) / 2
		if lv.writes[mid].idx < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, w := range lv.writes[lo:] {
		if w.idx >= to {
			break
		}
		if w.sp != sp {
			continue
		}
		for p := w.lo; p <= w.hi; p++ {
			if n := len(buf); n == 0 || buf[n-1] != int(p) {
				buf = append(buf, int(p))
			}
		}
	}
	return buf
}

// maxDiffWords bounds how many differing words per scratchpad
// ConvergedWith will reason about: transient faults leave at most a
// handful of inert words behind, so a larger diff means the run
// genuinely diverged and the scan should give up rather than keep
// enumerating.
const maxDiffWords = 64

// ConvergedWith reports whether this machine — stopped at a RunUntil
// boundary — has provably converged with the golden run represented by
// the snapshot s (captured at the same dynamic instruction boundary)
// and the liveness lv of the same run: the PC, PRNG, statistics (modulo
// the FaultsInjected counter), pipeline timing state and all main-memory
// pages that can differ are equal, and every register or scratchpad word
// that still differs is dead — never read by the golden run's remainder.
// When it holds, the remainder of this run commits the same instructions
// with the same timing and outputs as the golden run, so a caller can
// stop simulating and use the golden run's result.
//
// The second result is a retry hint: 0 means convergence is hopeless (a
// location that matters diverged — stop checking), a positive value is
// the earliest dynamic index at which every currently blocking location
// becomes dead, so checks before it cannot succeed.
//
// The machine must have been restored from a snapshot of the same
// golden run (its memories' dirty tracking bounds the pages that can
// differ). A proof allocates nothing once the machine's page and word
// buffers have grown.
func (m *Machine) ConvergedWith(s *Snapshot, lv *Liveness) (converged bool, retryAt int64) {
	if m.lastSnap == nil {
		return false, 0
	}
	j := m.stats.Instructions
	if j != s.stats.Instructions || m.pc != s.pc || m.rng != s.rng {
		return false, 0
	}
	// Statistics must match exactly, except that the faulted run counts
	// the fault it applied; FaultsInjected never feeds back into timing
	// or results.
	a, b := m.stats, s.stats
	a.FaultsInjected, b.FaultsInjected = 0, 0
	if a != b {
		return false, 0
	}
	if !m.pipe.equal(&s.pipe) {
		return false, 0
	}
	retry := int64(-1)
	need := func(end int64) bool {
		if end <= j {
			return true // dead: golden never reads it again
		}
		retry = max(retry, end)
		return false
	}
	for r := 0; r < core.NumGPRs; r++ {
		if m.gpr[r] != s.gpr[r] {
			need(lv.gprEnd[r])
		}
	}
	// Main memory must be exactly equal on every page that can differ
	// (main outputs are what the observation serializes, so no liveness
	// slack is taken there); a scratchpad may differ in up to
	// maxDiffWords words, each of which must be dead.
	readEnd := [3][]int32{spaceVec: lv.vspadEnd, spaceMat: lv.mspadEnd}
	for sp, mm := range m.memories() {
		pages, ok := m.pageBound(space(sp), lv, j)
		if !ok {
			return false, 0
		}
		ends := readEnd[sp]
		limit := 0
		if ends != nil {
			limit = maxDiffWords
		}
		words := m.wordBuf[:0]
		for _, p := range pages {
			if words, ok = mm.AppendPageDiffWords(words, s.img[sp], p, limit); !ok {
				break
			}
		}
		m.wordBuf = words
		if !ok {
			return false, 0
		}
		for _, w := range words {
			if w >= len(ends) {
				return false, 0
			}
			need(int64(ends[w]))
		}
	}
	if retry >= 0 {
		return false, retry
	}
	return true, 0
}

// pageBound returns, ascending and without repeats, every page of memory
// sp that can differ between this machine and the golden run's state at
// dynamic index to: the machine is lastSnap + its dirty pages, and the
// golden state is lastSnap + the pages the golden run wrote since, so
// their union bounds the difference. ok is false without dirty
// tracking. The slice is the machine's reusable page buffer, valid
// until the next call.
func (m *Machine) pageBound(sp space, lv *Liveness, to int64) (pages []int, ok bool) {
	pages, ok = m.memories()[sp].AppendDirtyPages(m.pageBuf[:0])
	pages = lv.appendWrittenPages(pages, sp, m.lastSnap.Instructions(), to)
	slices.Sort(pages)
	m.pageBuf = slices.Compact(pages)
	return m.pageBuf, ok
}
