package sim

import (
	"slices"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// pipeline is a timestamp-propagation model of the Fig. 8 seven-stage
// pipeline. Instructions pass through it in program order (the machine
// executes functionally in order); each advanceWith call computes when the
// instruction would fetch, issue, execute and commit given the structural
// resources of Table II, and accumulates stall statistics.
type pipeline struct {
	cfg   *Config
	stats *Stats
	pipeState
}

// pipeState is the pipeline's timing state at a dynamic instruction
// boundary: every value advanceWith reads or writes. Two pipelines in
// equal states time any identical instruction remainder identically, so
// a snapshot carrying a captured state resumes bit-identically to the
// uninterrupted run, and a convergence proof compares states with equal.
type pipeState struct {
	pipeScalars

	// iqIssued is the time each of the last IssueQueueDepth instructions
	// left the issue queue, robCommit the commit time of each of the last
	// ROBDepth; both rings are indexed by dynamic index.
	iqIssued  []int64
	robCommit []int64
	// mq is the memory-queue ring (memory-touching instructions only).
	// mqRetire[j] is the running maximum of done over every entry
	// inserted up to and including slot j: the cycle slot j retires by,
	// in order, and so an upper bound on the done time of slot j and of
	// every older entry. The dependence scan relies on that bound to stop
	// at the first slot, walking back from the newest, that cannot move
	// the dependence time.
	mq       []mqEntry
	mqRetire []int64
}

// pipeScalars is the timing state outside the rings. Every field is an
// int64, so the struct compares with ==.
type pipeScalars struct {
	// Count is the dynamic instruction index. IQPos and ROBPos are Count
	// modulo the issue-queue and reorder-buffer ring sizes, maintained
	// incrementally so the per-instruction ring accesses avoid int64
	// division.
	Count, IQPos, ROBPos int64
	// Fetch bandwidth and branch redirect.
	FetchCycle, FetchSlot, Redirect int64
	// In-order issue with IssueWidth bandwidth.
	IssueCycle, IssueSlot, LastIssueTime int64
	// In-order commit with IssueWidth bandwidth.
	CommitCycle, CommitSlot, LastCommit int64
	// MemCount counts memory-touching instructions; MQPos is MemCount
	// modulo the memory-queue ring size.
	MemCount, MQPos int64
	// Functional-unit availability. The scalar unit and L1 port are
	// pipelined (one new op per cycle); the vector and matrix units are
	// occupied for an operation's whole duration, which is what creates
	// the inter-instruction bubbles discussed in Section V-B3.
	ScalarNext, L1Next, VectorFree, MatrixFree int64
	RegReady                                   [core.NumGPRs]int64
}

// mqEntry is one in-flight memory-queue entry: when the instruction is
// done, and what it accesses. An entry holds only its live accesses,
// with the rest of the set zero, so entries compare with ==.
type mqEntry struct {
	done int64
	acc  accessSet
}

// resized returns buf resized to n zero elements, reusing its backing
// array when possible so Machine.Reset allocates nothing in steady
// state.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (p *pipeline) init(cfg *Config, stats *Stats) {
	p.cfg = cfg
	p.stats = stats
	p.reset(cfg)
}

// reset sets the state to a freshly built pipeline's under cfg.
func (p *pipeState) reset(cfg *Config) {
	p.pipeScalars = pipeScalars{}
	p.iqIssued = resized(p.iqIssued, cfg.IssueQueueDepth)
	p.robCommit = resized(p.robCommit, cfg.ROBDepth)
	p.mq = resized(p.mq, cfg.MemQueueDepth)
	p.mqRetire = resized(p.mqRetire, cfg.MemQueueDepth)
}

// capture returns a deep copy of the state; it shares no ring with p.
func (p *pipeState) capture() pipeState {
	return pipeState{
		pipeScalars: p.pipeScalars,
		iqIssued:    slices.Clone(p.iqIssued),
		robCommit:   slices.Clone(p.robCommit),
		mq:          slices.Clone(p.mq),
		mqRetire:    slices.Clone(p.mqRetire),
	}
}

// restore copies s into p. The rings are copied into p's existing
// backing arrays when capacity allows, so restoring allocates nothing in
// steady state.
func (p *pipeState) restore(s *pipeState) {
	p.pipeScalars = s.pipeScalars
	p.iqIssued = append(p.iqIssued[:0], s.iqIssued...)
	p.robCommit = append(p.robCommit[:0], s.robCommit...)
	p.mq = append(p.mq[:0], s.mq...)
	p.mqRetire = append(p.mqRetire[:0], s.mqRetire...)
}

// equal reports whether two states are the same.
func (p *pipeState) equal(s *pipeState) bool {
	return p.pipeScalars == s.pipeScalars &&
		slices.Equal(p.iqIssued, s.iqIssued) && slices.Equal(p.robCommit, s.robCommit) &&
		slices.Equal(p.mq, s.mq) && slices.Equal(p.mqRetire, s.mqRetire)
}

// advanceWith threads one executed instruction through the timing model
// and returns the instruction's commit cycle. The caller supplies the
// instruction's source and destination register sets (cached at decode
// time, or derived from a fetch-corrupted instruction).
//
// Besides computing the timestamps, advanceWith attributes every cycle of
// the instruction's commit window — the interval between the previous
// commit and this one — to exactly one stall cause (a CPI stack),
// accumulated in Stats.Stalls. The instruction's critical path covers
// [fetch, commit) contiguously, so clipping each path segment to the
// window and charging the pre-fetch remainder to whatever gated the fetch
// accounts for the whole window; commit windows telescope across the
// run, which is why the per-cause totals sum to exactly Stats.Cycles.
// When ev is non-nil the same timestamps and attribution are recorded for
// the tracer; passing nil adds no work beyond the always-on statistics.
func (p *pipeline) advanceWith(src []uint8, dst uint8, hasDst bool, e *effect, ev *trace.InstEvent) int64 {
	i := p.Count
	p.Count++
	iqPos, robPos := p.IQPos, p.ROBPos
	if p.IQPos++; p.IQPos == int64(len(p.iqIssued)) {
		p.IQPos = 0
	}
	if p.ROBPos++; p.ROBPos == int64(len(p.robCommit)) {
		p.ROBPos = 0
	}
	width := int64(p.cfg.IssueWidth)
	prevCommit := p.LastCommit

	// Fetch: bounded by the redirect of an earlier taken branch, fetch
	// bandwidth, and issue-queue space (the instruction IssueQueueDepth
	// back must have left the queue). fetchCause remembers which of the
	// three gated the fetch, for attributing the window's pre-fetch
	// cycles.
	f := p.Redirect
	fetchCause := trace.CauseBranch
	if p.FetchCycle >= f {
		f = p.FetchCycle
		fetchCause = trace.CauseFrontend
	}
	if i >= int64(len(p.iqIssued)) {
		if t := p.iqIssued[iqPos]; t > f {
			f = t
			fetchCause = trace.CauseIQFull
		}
	}
	// Fetch bandwidth: at most IssueWidth fetches per cycle.
	if f > p.FetchCycle {
		p.FetchCycle = f
		p.FetchSlot = 0
	} else {
		f = p.FetchCycle
	}
	p.FetchSlot++
	if p.FetchSlot >= width {
		p.FetchCycle++
		p.FetchSlot = 0
	}

	// Decode, then in-order issue behind the previous instruction.
	d := f + 1
	s0 := d
	if s0 < p.LastIssueTime {
		s0 = p.LastIssueTime
	}

	// Issue: in order, after source registers are read from the scalar
	// register file, with ROB and memory-queue space available.
	rr := s0
	for _, r := range src {
		if p.RegReady[r] > rr {
			rr = p.RegReady[r]
		}
	}
	p.stats.RegStallCycles += rr - s0
	sROB := rr
	if i >= int64(len(p.robCommit)) {
		if t := p.robCommit[robPos]; t > sROB {
			p.stats.ROBFullStallCycles += t - sROB
			sROB = t
		}
	}
	isMem := e.fu == fuVector || e.fu == fuMatrix || e.fu == fuScalarMem
	sMQ := sROB
	if isMem && p.MemCount >= int64(len(p.mqRetire)) {
		if t := p.mqRetire[p.MQPos]; t > sMQ {
			p.stats.MemQueueFullStallCycles += t - sMQ
			sMQ = t
		}
	}
	// Issue bandwidth: at most IssueWidth issues per cycle.
	s := sMQ
	if s > p.IssueCycle {
		p.IssueCycle = s
		p.IssueSlot = 0
	} else {
		s = p.IssueCycle
	}
	p.IssueSlot++
	if p.IssueSlot >= width {
		p.IssueCycle++
		p.IssueSlot = 0
	}
	p.LastIssueTime = s
	p.iqIssued[iqPos] = s

	// Execute. regReadEnd closes the fixed post-issue pipeline stages
	// (register read, and the AGU for memory-touching instructions),
	// depEnd the memory-queue dependence wait, start the functional-unit
	// availability wait.
	var regReadEnd, depEnd, start, done int64
	switch e.fu {
	case fuScalar:
		regReadEnd = s + 1 // register-read stage
		depEnd = regReadEnd
		start = regReadEnd
		if p.ScalarNext > start {
			p.stats.FUBusyStallCycles += p.ScalarNext - start
			start = p.ScalarNext
		}
		done = start + e.execCycles
		p.ScalarNext = start + 1
	default:
		// Memory-touching instructions pass the AGU and wait in the
		// memory queue for earlier overlapping accesses.
		entry := s + 2 // register read + AGU
		regReadEnd = entry
		dep := entry
		// Scan the in-flight window, newest first, for overlapping
		// earlier accesses. Only an entry whose done time exceeds dep can
		// move it, so the walk stops at the first slot whose mqRetire
		// bound is at or below dep. dep ends as the largest done time
		// among the conflicting entries whatever the visiting order. A
		// conflict needs one set's write mask to meet the other's access
		// mask, which settles most disjoint-space entries without
		// comparing regions.
		wmask, amask := e.acc.wmask, e.acc.amask
		span := p.MemCount
		if span > int64(len(p.mq)) {
			span = int64(len(p.mq))
		}
		pos := p.MQPos
		for ; span > 0; span-- {
			if pos == 0 {
				pos = int64(len(p.mq))
			}
			pos--
			if p.mqRetire[pos] <= dep {
				break
			}
			ent := &p.mq[pos]
			if ent.done > dep && ent.acc.wmask&amask|ent.acc.amask&wmask != 0 &&
				ent.acc.conflicts(&e.acc) {
				dep = ent.done
			}
		}
		p.stats.MemDepStallCycles += dep - entry
		depEnd = dep
		start = dep
		switch e.fu {
		case fuVector:
			if p.VectorFree > start {
				p.stats.FUBusyStallCycles += p.VectorFree - start
				start = p.VectorFree
			}
			done = start + e.execCycles
			p.VectorFree = done
			p.stats.VectorBusyCycles += e.execCycles
		case fuMatrix:
			if p.MatrixFree > start {
				p.stats.FUBusyStallCycles += p.MatrixFree - start
				start = p.MatrixFree
			}
			done = start + e.execCycles
			p.MatrixFree = done
			p.stats.MatrixBusyCycles += e.execCycles
		case fuScalarMem:
			if p.L1Next > start {
				p.stats.FUBusyStallCycles += p.L1Next - start
				start = p.L1Next
			}
			done = start + e.execCycles
			p.L1Next = start + 1
		}
		// Record the memory-queue entry, zeroing the accesses past the
		// live ones; retirement is in order.
		idx := p.MQPos
		ent := &p.mq[idx]
		ent.done = done
		ent.acc = e.acc
		clear(ent.acc.regs[ent.acc.n:])
		retire := done
		if p.MemCount > 0 {
			prevIdx := idx - 1
			if prevIdx < 0 {
				prevIdx = int64(len(p.mqRetire)) - 1
			}
			if prev := p.mqRetire[prevIdx]; prev > retire {
				retire = prev
			}
		}
		p.mqRetire[idx] = retire
		p.MemCount++
		if p.MQPos++; p.MQPos == int64(len(p.mq)) {
			p.MQPos = 0
		}
	}

	// Write back.
	if hasDst {
		p.RegReady[dst] = done + 1
	}

	// Commit: in order, IssueWidth per cycle.
	c := done + 1
	if c < p.LastCommit {
		c = p.LastCommit
	}
	// Commit bandwidth: at most IssueWidth commits per cycle.
	if c > p.CommitCycle {
		p.CommitCycle = c
		p.CommitSlot = 0
	} else {
		c = p.CommitCycle
	}
	p.CommitSlot++
	if p.CommitSlot >= width {
		p.CommitCycle++
		p.CommitSlot = 0
	}
	p.LastCommit = c
	p.robCommit[robPos] = c

	// Branch redirect.
	if e.branchTaken {
		r := done + int64(p.cfg.BranchPenaltyCycles)
		if r > p.Redirect {
			p.Redirect = r
		}
	}

	// Stall attribution: walk the critical path's commit window
	// [prevCommit, c). The path's segment boundaries are monotone and
	// contiguous (f <= s0 <= rr <= sROB <= sMQ <= s <= regReadEnd <=
	// depEnd <= start <= done+1 <= c), so advancing a cursor from
	// prevCommit boundary to boundary charges every window cycle to
	// exactly one cause; cycles before the fetch are charged to whatever
	// gated the fetch. Commit windows telescope across the run, which is
	// why the per-cause totals sum to exactly Stats.Cycles.
	w := prevCommit
	charge := func(cause trace.Cause, b int64) {
		if b > c {
			b = c
		}
		if b > w {
			p.stats.Stalls[cause] += b - w
			if ev != nil {
				ev.Attr[cause] += b - w
			}
			w = b
		}
	}
	charge(fetchCause, f)                  // pre-fetch wait
	charge(trace.CauseFrontend, s0)        // fetch + decode + in-order issue
	charge(trace.CauseRegDep, rr)          // source-register wait
	charge(trace.CauseROBFull, sROB)       // reorder-buffer wait
	charge(trace.CauseMemQueueFull, sMQ)   // memory-queue-space wait
	charge(trace.CauseFrontend, s)         // issue bandwidth
	charge(trace.CauseCompute, regReadEnd) // register read + AGU
	charge(trace.CauseMemDep, depEnd)      // memory-dependence wait
	charge(trace.CauseFUBusy, start)       // functional-unit wait
	charge(trace.CauseCompute, done+1)     // execution + write-back
	charge(trace.CauseCommit, c)           // in-order / bandwidth commit wait

	if ev != nil {
		ev.Fetch, ev.Decode, ev.Issue = f, d, s
		ev.ExecStart, ev.ExecDone, ev.Commit = start, done, c
		ev.ExecCycles = e.execCycles
		ev.FU = trace.FU(e.fu)
		ev.Gap = c - prevCommit
		ev.RegWait = rr - s0
		ev.ROBWait = sROB - rr
		ev.MemQueueWait = sMQ - sROB
		ev.MemDepWait = depEnd - regReadEnd
		ev.FUBusyWait = start - depEnd
	}
	return c
}
