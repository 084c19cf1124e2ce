package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Chrome is a Tracer that streams the run as Chrome Trace Event JSON,
// the format ui.perfetto.dev and chrome://tracing open directly. One
// simulated cycle is rendered as one microsecond of trace time.
//
// The timeline is organized as one track per pipeline resource:
//
//	frontend     fetch->issue span of every instruction (stalled fetches
//	             and issue-stage waits show up as long spans)
//	scalar FU    execution spans of scalar ALU instructions
//	L1 port      scalar load/store execution spans
//	vector FU    vector functional-unit occupancy spans
//	matrix FU    matrix functional-unit occupancy spans
//	vector DMA   VLOAD/VSTORE transfer spans
//	matrix DMA   MLOAD/MSTORE transfer spans
//	commit       one instant per committed instruction
//	bank conflicts  instants where a scratchpad access serialized in the
//	                crossbar
//	stall cycles    cumulative per-cause counter track (the CPI stack
//	                over time; the slope shows what the machine was
//	                limited by at each point of the run)
//
// Events stream through a ChromeDoc; Close finishes the JSON document
// and reports the first write error.
type Chrome struct {
	doc *ChromeDoc
	cum Breakdown // running totals behind the counter track

	// faultTrack latches whether the injected-faults track metadata has
	// been emitted (lazily, on the first fault event, so fault-free
	// traces are unchanged).
	faultTrack bool
}

// Track ids (Chrome "tid" values) in display order.
const (
	tidFrontend = 1 + iota
	tidScalar
	tidL1
	tidVector
	tidMatrix
	tidVecDMA
	tidMatDMA
	tidCommit
	tidConflict
	tidStalls
	tidFault
)

var trackNames = map[int]string{
	tidFrontend: "frontend (fetch->issue)",
	tidScalar:   "scalar FU",
	tidL1:       "L1 port",
	tidVector:   "vector FU",
	tidMatrix:   "matrix FU",
	tidVecDMA:   "vector DMA",
	tidMatDMA:   "matrix DMA",
	tidCommit:   "commit",
	tidConflict: "bank conflicts",
}

// NewChrome builds a writer emitting to w. Call Close after the run to
// finish the document.
func NewChrome(w io.Writer) *Chrome {
	return &Chrome{doc: NewChromeDoc(w)}
}

// BeginRun writes the document preamble and track metadata. Only the
// first call opens the document; later runs append to the same timeline.
func (c *Chrome) BeginRun(meta RunMeta) {
	if c.doc.opened {
		return
	}
	c.doc.Open(`"tool":"cambricon camsim","cycle_unit":"1 trace us = 1 simulated cycle","clock_hz":%g,"vector_lanes":%d,"matrix_blocks":%d,"macs_per_block":%d,"spad_banks":%d`,
		meta.ClockHz, meta.VectorLanes, meta.MatrixBlocks, meta.MACsPerBlock, meta.SpadBanks)
	c.doc.Event(`{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"cambricon-acc"}}`)
	for tid := tidFrontend; tid <= tidConflict; tid++ {
		c.doc.Event(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`, tid, trackNames[tid])
		c.doc.Event(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, tid, tid)
	}
}

// fuTid maps an instruction to its execution track.
func fuTid(ev *InstEvent) int {
	switch {
	case ev.FU == FUVector && ev.IsDMA:
		return tidVecDMA
	case ev.FU == FUMatrix && ev.IsDMA:
		return tidMatDMA
	case ev.FU == FUVector:
		return tidVector
	case ev.FU == FUMatrix:
		return tidMatrix
	case ev.FU == FUScalarMem:
		return tidL1
	}
	return tidScalar
}

// Instruction emits the instruction's frontend span, execution span,
// commit instant, and advances the stall counter track.
func (c *Chrome) Instruction(ev *InstEvent) {
	op := ev.Inst.Op.String()
	// Frontend: fetch through issue.
	c.doc.Event(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"pc":%d,"idx":%d}}`,
		tidFrontend, ev.Fetch, ev.Issue-ev.Fetch, op, ev.PC, ev.Index)
	// Execution span on the owning FU or DMA engine track.
	if ev.IsDMA {
		c.doc.Event(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"pc":%d,"idx":%d,"bytes":%d}}`,
			fuTid(ev), ev.ExecStart, ev.ExecDone-ev.ExecStart, op, ev.PC, ev.Index, ev.DMABytes)
	} else {
		c.doc.Event(`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"pc":%d,"idx":%d}}`,
			fuTid(ev), ev.ExecStart, ev.ExecDone-ev.ExecStart, op, ev.PC, ev.Index)
	}
	// Commit instant; taken branches are annotated.
	name := op
	if ev.BranchTaken {
		name = op + " taken"
	}
	c.doc.Event(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%q,"args":{"pc":%d,"idx":%d}}`,
		tidCommit, ev.Commit, name, ev.PC, ev.Index)
	// Cumulative CPI-stack counters.
	for i := range ev.Attr {
		c.cum[i] += ev.Attr[i]
	}
	c.doc.Event(`{"ph":"C","pid":0,"tid":%d,"ts":%d,"name":"stall cycles (cumulative)","args":{`, tidStalls, ev.Commit)
	for i, v := range c.cum {
		if i > 0 {
			c.doc.Printf(",")
		}
		c.doc.Printf(`%q:%d`, Cause(i).String(), v)
	}
	c.doc.Printf("}}")
}

// Fault emits an instant on the fault-injection track. The track's
// metadata is emitted lazily on the first fault so fault-free traces
// stay byte-identical to what they were before fault support existed.
func (c *Chrome) Fault(kind string, pc int, atCycle int64) {
	if !c.faultTrack {
		c.faultTrack = true
		c.doc.Event(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"injected faults"}}`, tidFault)
		c.doc.Event(`{"ph":"M","pid":0,"tid":%d,"name":"thread_sort_index","args":{"sort_index":%d}}`, tidFault, tidFault)
	}
	c.doc.Event(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":%q,"args":{"pc":%d}}`,
		tidFault, atCycle, "fault: "+kind, pc)
}

// BankConflict emits an instant on the conflict track.
func (c *Chrome) BankConflict(spad string, bank int, extraCycles, atCycle int64) {
	c.doc.Event(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"t","name":"conflict","args":{"spad":%q,"bank":%d,"extra_cycles":%d}}`,
		tidConflict, atCycle, spad, bank, extraCycles)
}

// EndRun marks the end of the run on the commit track.
func (c *Chrome) EndRun(totalCycles int64) {
	c.doc.Event(`{"ph":"i","pid":0,"tid":%d,"ts":%d,"s":"g","name":"run end","args":{"total_cycles":%d}}`,
		tidCommit, totalCycles, totalCycles)
}

// Close finishes the JSON document, flushes, and returns the first error
// seen on the underlying writer. A Chrome that never saw a run still
// produces a valid empty trace.
func (c *Chrome) Close() error { return c.doc.Close() }

// ChromeDoc writes one Chrome Trace Event JSON document. It owns the
// framing both of the repository's exporters share — camsim's pipeline
// timeline (Chrome) and camserve's request spans
// (reqtrace.Bundle.WriteChrome): the preamble with its otherData, the
// separator before each event, and the closing bracket. Producers write
// event bodies only. Output is buffered; the first write error is
// latched, later writes are dropped, and Close reports it.
type ChromeDoc struct {
	w      *bufio.Writer
	err    error
	events int // events begun, for separator placement
	opened bool
}

// NewChromeDoc starts a document written to w: Open it, write each event
// with Event (extended by Printf), then Close it.
func NewChromeDoc(w io.Writer) *ChromeDoc {
	return &ChromeDoc{w: bufio.NewWriterSize(w, 64<<10)}
}

// Open writes the preamble. otherData is the body of the document's
// otherData object, formatted with args.
func (d *ChromeDoc) Open(otherData string, args ...any) {
	d.opened = true
	d.Printf(`{"displayTimeUnit":"ms","otherData":{`+otherData+`},"traceEvents":[`, args...)
}

// Event begins the next trace event and writes its body, or the start
// of it when Printf appends the rest.
func (d *ChromeDoc) Event(format string, args ...any) {
	if d.events > 0 {
		d.Printf(",\n")
	} else {
		d.Printf("\n")
	}
	d.events++
	d.Printf(format, args...)
}

// Printf appends a fragment to the current event.
func (d *ChromeDoc) Printf(format string, args ...any) {
	if d.err != nil {
		return
	}
	_, d.err = fmt.Fprintf(d.w, format, args...)
}

// Close ends the document (an empty one if Open was never called),
// flushes it, and returns the first write error.
func (d *ChromeDoc) Close() error {
	if !d.opened {
		d.Printf(`{"traceEvents":[`)
	}
	d.Printf("\n]}\n")
	if d.err != nil {
		return d.err
	}
	return d.w.Flush()
}
