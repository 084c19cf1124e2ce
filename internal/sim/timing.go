package sim

import (
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

	count int64 // dynamic instruction index
	// iqPos/robPos are count modulo the respective ring sizes, maintained
	// incrementally so the per-instruction ring accesses avoid int64
	// division.
	iqPos, robPos int

	// Fetch bandwidth and branch redirect.
	fetchCycle int64
	fetchSlot  int
	redirect   int64

	// Issue queue: time each of the last IssueQueueDepth instructions
	// left the queue (ring indexed by dynamic index).
	iqIssued []int64
	// In-order issue with IssueWidth bandwidth.
	issueCycle    int64
	issueSlot     int
	lastIssueTime int64

	// Reorder buffer: commit time ring.
	robCommit []int64
	// In-order commit with IssueWidth bandwidth.
	commitCycle int64
	commitSlot  int
	lastCommit  int64

	// Memory queue ring (memory-touching instructions only). mqPos is
	// memCount modulo the ring size. mqRetire[j] is the running maximum
	// of done over every entry inserted up to and including slot j: the
	// cycle slot j retires by, in order, and so an upper bound on the done
	// time of slot j and of every older entry. The dependence scan relies
	// on that bound to stop at the first slot, walking back from the
	// newest, that cannot move the dependence time.
	memCount int64
	mqPos    int
	mq       []mqEntry
	mqRetire []int64

	// Functional-unit availability. The scalar unit and L1 port are
	// pipelined (one new op per cycle); the vector and matrix units are
	// occupied for an operation's whole duration, which is what creates
	// the inter-instruction bubbles discussed in Section V-B3.
	scalarNext int64
	l1Next     int64
	vectorFree int64
	matrixFree int64

	regReady [core.NumGPRs]int64
}

// mqEntry is one in-flight memory-queue entry. The access set is a fixed
// array (no instruction touches more than four regions, see effect), so
// recording an entry and scanning the queue for dependences never
// allocates. wmask/amask summarize the set (bit i set when space i has a
// written / any access): two entries can only conflict when one's write
// mask intersects the other's access mask, so the dependence scan skips
// the region-overlap test for the common disjoint-space case.
type mqEntry struct {
	done   int64
	accBuf [4]access
	nAcc   int
	wmask  uint8
	amask  uint8
}

// acc views the entry's access set.
func (q *mqEntry) acc() []access { return q.accBuf[:q.nAcc] }

// resizeInt64 returns buf cleared and resized to n, reusing its backing
// array when possible so Machine.Reset allocates nothing in steady state.
func resizeInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func (p *pipeline) init(cfg *Config, stats *Stats) {
	p.cfg = cfg
	p.stats = stats
	p.count = 0
	p.iqPos, p.robPos = 0, 0
	p.fetchCycle, p.fetchSlot, p.redirect = 0, 0, 0
	p.iqIssued = resizeInt64(p.iqIssued, cfg.IssueQueueDepth)
	p.issueCycle, p.issueSlot, p.lastIssueTime = 0, 0, 0
	p.robCommit = resizeInt64(p.robCommit, cfg.ROBDepth)
	p.commitCycle, p.commitSlot, p.lastCommit = 0, 0, 0
	p.memCount, p.mqPos = 0, 0
	if cap(p.mq) < cfg.MemQueueDepth {
		p.mq = make([]mqEntry, cfg.MemQueueDepth)
	} else {
		p.mq = p.mq[:cfg.MemQueueDepth]
		for i := range p.mq {
			p.mq[i] = mqEntry{}
		}
	}
	p.mqRetire = resizeInt64(p.mqRetire, cfg.MemQueueDepth)
	p.scalarNext, p.l1Next, p.vectorFree, p.matrixFree = 0, 0, 0, 0
	p.regReady = [core.NumGPRs]int64{}
}

// pipeState is a deep copy of the pipeline's timing state at a dynamic
// instruction boundary — every field advanceWith reads or writes, with
// the rings copied out of the live pipeline. Mid-run snapshots carry one
// so a restored machine resumes with exactly the stage clocks, in-flight
// memory-queue entries and functional-unit availability the capturing
// machine had, making the resumed remainder bit-identical to the
// uninterrupted run. A pipeState is immutable once captured.
type pipeState struct {
	count         int64
	iqPos, robPos int
	fetchCycle    int64
	fetchSlot     int
	redirect      int64
	iqIssued      []int64
	issueCycle    int64
	issueSlot     int
	lastIssueTime int64
	robCommit     []int64
	commitCycle   int64
	commitSlot    int
	lastCommit    int64
	memCount      int64
	mqPos         int
	mq            []mqEntry
	mqRetire      []int64
	scalarNext    int64
	l1Next        int64
	vectorFree    int64
	matrixFree    int64
	regReady      [core.NumGPRs]int64
}

// capture copies the pipeline's current timing state.
func (p *pipeline) capture() *pipeState {
	return &pipeState{
		count:         p.count,
		iqPos:         p.iqPos,
		robPos:        p.robPos,
		fetchCycle:    p.fetchCycle,
		fetchSlot:     p.fetchSlot,
		redirect:      p.redirect,
		iqIssued:      append([]int64(nil), p.iqIssued...),
		issueCycle:    p.issueCycle,
		issueSlot:     p.issueSlot,
		lastIssueTime: p.lastIssueTime,
		robCommit:     append([]int64(nil), p.robCommit...),
		commitCycle:   p.commitCycle,
		commitSlot:    p.commitSlot,
		lastCommit:    p.lastCommit,
		memCount:      p.memCount,
		mqPos:         p.mqPos,
		mq:            append([]mqEntry(nil), p.mq...),
		mqRetire:      append([]int64(nil), p.mqRetire...),
		scalarNext:    p.scalarNext,
		l1Next:        p.l1Next,
		vectorFree:    p.vectorFree,
		matrixFree:    p.matrixFree,
		regReady:      p.regReady,
	}
}

// restoreState reinstates a captured timing state, re-pointing the
// pipeline at the owning machine's configuration and statistics (the
// captured ring sizes match any archEqual configuration by construction).
// Ring buffers are copied into the pipeline's existing backing arrays
// when capacity allows, so restoring allocates nothing in steady state.
func (p *pipeline) restoreState(s *pipeState, cfg *Config, stats *Stats) {
	p.cfg = cfg
	p.stats = stats
	p.count = s.count
	p.iqPos, p.robPos = s.iqPos, s.robPos
	p.fetchCycle, p.fetchSlot, p.redirect = s.fetchCycle, s.fetchSlot, s.redirect
	p.iqIssued = resizeInt64(p.iqIssued, len(s.iqIssued))
	copy(p.iqIssued, s.iqIssued)
	p.issueCycle, p.issueSlot, p.lastIssueTime = s.issueCycle, s.issueSlot, s.lastIssueTime
	p.robCommit = resizeInt64(p.robCommit, len(s.robCommit))
	copy(p.robCommit, s.robCommit)
	p.commitCycle, p.commitSlot, p.lastCommit = s.commitCycle, s.commitSlot, s.lastCommit
	p.memCount, p.mqPos = s.memCount, s.mqPos
	if cap(p.mq) < len(s.mq) {
		p.mq = make([]mqEntry, len(s.mq))
	} else {
		p.mq = p.mq[:len(s.mq)]
	}
	copy(p.mq, s.mq)
	p.mqRetire = resizeInt64(p.mqRetire, len(s.mqRetire))
	copy(p.mqRetire, s.mqRetire)
	p.scalarNext, p.l1Next = s.scalarNext, s.l1Next
	p.vectorFree, p.matrixFree = s.vectorFree, s.matrixFree
	p.regReady = s.regReady
}

// int64sEqual reports element-wise equality of two int64 slices.
func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// stateEqual reports whether the pipeline's live timing state matches a
// captured one: two pipelines in equal states produce identical timing
// for any identical instruction remainder. Memory-queue entries are
// compared semantically — done time, masks and the first nAcc access
// regions — because ring inserts copy only the live access prefix,
// leaving stale bytes in accBuf tails that the dependence scan (which
// reads acc() = accBuf[:nAcc]) never sees.
func (p *pipeline) stateEqual(s *pipeState) bool {
	if s == nil {
		return false
	}
	if p.count != s.count || p.iqPos != s.iqPos || p.robPos != s.robPos ||
		p.fetchCycle != s.fetchCycle || p.fetchSlot != s.fetchSlot || p.redirect != s.redirect ||
		p.issueCycle != s.issueCycle || p.issueSlot != s.issueSlot || p.lastIssueTime != s.lastIssueTime ||
		p.commitCycle != s.commitCycle || p.commitSlot != s.commitSlot || p.lastCommit != s.lastCommit ||
		p.memCount != s.memCount || p.mqPos != s.mqPos ||
		p.scalarNext != s.scalarNext || p.l1Next != s.l1Next ||
		p.vectorFree != s.vectorFree || p.matrixFree != s.matrixFree ||
		p.regReady != s.regReady {
		return false
	}
	if !int64sEqual(p.iqIssued, s.iqIssued) || !int64sEqual(p.robCommit, s.robCommit) ||
		!int64sEqual(p.mqRetire, s.mqRetire) {
		return false
	}
	if len(p.mq) != len(s.mq) {
		return false
	}
	for i := range p.mq {
		a, b := &p.mq[i], &s.mq[i]
		if a.done != b.done || a.nAcc != b.nAcc || a.wmask != b.wmask || a.amask != b.amask {
			return false
		}
		for k := 0; k < a.nAcc; k++ {
			if a.accBuf[k] != b.accBuf[k] {
				return false
			}
		}
	}
	return true
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
	i := p.count
	p.count++
	iqPos, robPos := p.iqPos, p.robPos
	if p.iqPos++; p.iqPos == len(p.iqIssued) {
		p.iqPos = 0
	}
	if p.robPos++; p.robPos == len(p.robCommit) {
		p.robPos = 0
	}
	width := p.cfg.IssueWidth
	prevCommit := p.lastCommit

	// Fetch: bounded by the redirect of an earlier taken branch, fetch
	// bandwidth, and issue-queue space (the instruction IssueQueueDepth
	// back must have left the queue). fetchCause remembers which of the
	// three gated the fetch, for attributing the window's pre-fetch
	// cycles.
	f := p.redirect
	fetchCause := trace.CauseBranch
	if p.fetchCycle >= f {
		f = p.fetchCycle
		fetchCause = trace.CauseFrontend
	}
	if i >= int64(len(p.iqIssued)) {
		if t := p.iqIssued[iqPos]; t > f {
			f = t
			fetchCause = trace.CauseIQFull
		}
	}
	// Fetch bandwidth: at most IssueWidth fetches per cycle.
	if f > p.fetchCycle {
		p.fetchCycle = f
		p.fetchSlot = 0
	} else {
		f = p.fetchCycle
	}
	p.fetchSlot++
	if p.fetchSlot >= width {
		p.fetchCycle++
		p.fetchSlot = 0
	}

	// Decode, then in-order issue behind the previous instruction.
	d := f + 1
	s0 := d
	if s0 < p.lastIssueTime {
		s0 = p.lastIssueTime
	}

	// Issue: in order, after source registers are read from the scalar
	// register file, with ROB and memory-queue space available.
	rr := s0
	for _, r := range src {
		if p.regReady[r] > rr {
			rr = p.regReady[r]
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
	if isMem && p.memCount >= int64(len(p.mqRetire)) {
		if t := p.mqRetire[p.mqPos]; t > sMQ {
			p.stats.MemQueueFullStallCycles += t - sMQ
			sMQ = t
		}
	}
	// Issue bandwidth: at most IssueWidth issues per cycle.
	s := sMQ
	if s > p.issueCycle {
		p.issueCycle = s
		p.issueSlot = 0
	} else {
		s = p.issueCycle
	}
	p.issueSlot++
	if p.issueSlot >= width {
		p.issueCycle++
		p.issueSlot = 0
	}
	p.lastIssueTime = s
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
		if p.scalarNext > start {
			p.stats.FUBusyStallCycles += p.scalarNext - start
			start = p.scalarNext
		}
		done = start + e.execCycles
		p.scalarNext = start + 1
	default:
		// Memory-touching instructions pass the AGU and wait in the
		// memory queue for earlier overlapping accesses.
		entry := s + 2 // register read + AGU
		regReadEnd = entry
		dep := entry
		acc := e.acc()
		wmask, amask := accessMasks(acc)
		// Scan the in-flight window, newest first, for overlapping
		// earlier accesses. Only an entry whose done time exceeds dep can
		// move it, so the walk stops at the first slot whose mqRetire
		// bound is at or below dep. dep ends as the largest done time
		// among the conflicting entries whatever the visiting order.
		span := p.memCount
		if span > int64(len(p.mq)) {
			span = int64(len(p.mq))
		}
		pos := p.mqPos
		for ; span > 0; span-- {
			if pos == 0 {
				pos = len(p.mq)
			}
			pos--
			if p.mqRetire[pos] <= dep {
				break
			}
			ent := &p.mq[pos]
			if ent.done > dep && ent.wmask&amask|ent.amask&wmask != 0 &&
				overlapsConflicting(ent.acc(), acc) {
				dep = ent.done
			}
		}
		p.stats.MemDepStallCycles += dep - entry
		depEnd = dep
		start = dep
		switch e.fu {
		case fuVector:
			if p.vectorFree > start {
				p.stats.FUBusyStallCycles += p.vectorFree - start
				start = p.vectorFree
			}
			done = start + e.execCycles
			p.vectorFree = done
			p.stats.VectorBusyCycles += e.execCycles
		case fuMatrix:
			if p.matrixFree > start {
				p.stats.FUBusyStallCycles += p.matrixFree - start
				start = p.matrixFree
			}
			done = start + e.execCycles
			p.matrixFree = done
			p.stats.MatrixBusyCycles += e.execCycles
		case fuScalarMem:
			if p.l1Next > start {
				p.stats.FUBusyStallCycles += p.l1Next - start
				start = p.l1Next
			}
			done = start + e.execCycles
			p.l1Next = start + 1
		}
		// Record the memory-queue entry; retirement is in order.
		idx := p.mqPos
		ent := &p.mq[idx]
		ent.done = done
		copy(ent.accBuf[:], acc)
		ent.nAcc = len(acc)
		ent.wmask, ent.amask = wmask, amask
		retire := done
		if p.memCount > 0 {
			prevIdx := idx - 1
			if prevIdx < 0 {
				prevIdx = len(p.mqRetire) - 1
			}
			if prev := p.mqRetire[prevIdx]; prev > retire {
				retire = prev
			}
		}
		p.mqRetire[idx] = retire
		p.memCount++
		if p.mqPos++; p.mqPos == len(p.mq) {
			p.mqPos = 0
		}
	}

	// Write back.
	if hasDst {
		p.regReady[dst] = done + 1
	}

	// Commit: in order, IssueWidth per cycle.
	c := done + 1
	if c < p.lastCommit {
		c = p.lastCommit
	}
	// Commit bandwidth: at most IssueWidth commits per cycle.
	if c > p.commitCycle {
		p.commitCycle = c
		p.commitSlot = 0
	} else {
		c = p.commitCycle
	}
	p.commitSlot++
	if p.commitSlot >= width {
		p.commitCycle++
		p.commitSlot = 0
	}
	p.lastCommit = c
	p.robCommit[robPos] = c

	// Branch redirect.
	if e.branchTaken {
		r := done + int64(p.cfg.BranchPenaltyCycles)
		if r > p.redirect {
			p.redirect = r
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
