package trace

import (
	"fmt"
	"sort"
	"strings"

	"cambricon/internal/core"
)

// Profile is a Tracer that rolls the event stream up into a
// stall-attribution profile: a CPI stack (cycles per cause), per-opcode
// cycle histograms, functional-unit utilization and a bank-conflict
// heatmap. It streams — per-instruction work is a handful of array adds,
// with no allocation after BeginRun — so it can ride along on any run.
//
// The accounting inherits the event stream's invariant: every cycle of
// the run is attributed to exactly one cause, so the profile's stall
// rows sum to the simulated cycle count exactly.
type Profile struct {
	// Label names the run in reports (e.g. the benchmark name).
	Label string

	meta  RunMeta
	total int64
	insts int64

	causes   Breakdown
	fuOps    [NumFUs]int64
	fuBusy   [NumFUs]int64
	branches int64

	dmaBytes  int64
	dmaCycles int64

	lat LatencyWaits

	opCycles [core.NumInstructions + 1]int64
	opStall  [core.NumInstructions + 1]int64
	opCount  [core.NumInstructions + 1]int64

	// conflicts maps scratchpad name -> per-bank extra serialization
	// cycles.
	conflicts     map[string][]int64
	conflictTotal int64

	// faults counts injected-fault events per model kind, in first-seen
	// order (runs see at most a handful of kinds, so a sorted slice beats
	// a map for deterministic reports).
	faults []FaultCount
}

// FaultCount is one fault-model row of the profile.
type FaultCount struct {
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// Fault counts an injected-fault event.
func (p *Profile) Fault(kind string, pc int, atCycle int64) {
	for i := range p.faults {
		if p.faults[i].Kind == kind {
			p.faults[i].Count++
			return
		}
	}
	p.faults = append(p.faults, FaultCount{Kind: kind, Count: 1})
}

// NewProfile builds an empty profile.
func NewProfile() *Profile {
	return &Profile{conflicts: map[string][]int64{}}
}

// BeginRun records the machine parameters.
func (p *Profile) BeginRun(meta RunMeta) { p.meta = meta }

// Instruction folds one committed instruction into the rollup.
func (p *Profile) Instruction(ev *InstEvent) {
	p.insts++
	for i, v := range ev.Attr {
		p.causes[i] += v
	}
	op := int(ev.Inst.Op)
	if op >= len(p.opCycles) {
		op = 0 // defensive: unknown opcodes pool at index 0
	}
	p.opCycles[op] += ev.Gap
	p.opStall[op] += ev.Gap - ev.Attr[CauseCompute]
	p.opCount[op]++
	fu := ev.FU
	if fu >= NumFUs {
		fu = FUScalar
	}
	p.fuOps[fu]++
	switch fu {
	case FUVector, FUMatrix:
		// Occupying units: busy for the whole operation.
		p.fuBusy[fu] += ev.ExecCycles
	default:
		// Pipelined units accept one operation per cycle.
		p.fuBusy[fu]++
	}
	if ev.BranchTaken {
		p.branches++
	}
	if ev.IsDMA {
		p.dmaBytes += int64(ev.DMABytes)
		p.dmaCycles += ev.ExecCycles
	}
	p.lat.RegDep += ev.RegWait
	p.lat.ROBFull += ev.ROBWait
	p.lat.MemQueueFull += ev.MemQueueWait
	p.lat.MemDep += ev.MemDepWait
	p.lat.FUBusy += ev.FUBusyWait
}

// BankConflict accumulates the heatmap.
func (p *Profile) BankConflict(spad string, bank int, extraCycles, atCycle int64) {
	if bank < 0 {
		return
	}
	banks := p.conflicts[spad]
	for len(banks) <= bank {
		banks = append(banks, 0)
	}
	banks[bank] += extraCycles
	p.conflicts[spad] = banks
	p.conflictTotal += extraCycles
}

// EndRun records the total cycle count.
func (p *Profile) EndRun(totalCycles int64) { p.total = totalCycles }

// Causes returns the accumulated CPI stack.
func (p *Profile) Causes() Breakdown { return p.causes }

// CauseShare is one row of the stall-attribution table.
type CauseShare struct {
	Cause   string  `json:"cause"`
	Cycles  int64   `json:"cycles"`
	Percent float64 `json:"percent"`
}

// OpcodeProfile is one row of the per-opcode cycle histogram.
type OpcodeProfile struct {
	Op          string  `json:"op"`
	Count       int64   `json:"count"`
	Cycles      int64   `json:"cycles"`
	StallCycles int64   `json:"stall_cycles"`
	Percent     float64 `json:"percent"`
}

// FUUtil is one functional unit's utilization.
type FUUtil struct {
	FU          string  `json:"fu"`
	Ops         int64   `json:"ops"`
	BusyCycles  int64   `json:"busy_cycles"`
	Utilization float64 `json:"utilization"`
}

// LatencyWaits sums how long instructions themselves waited at each
// pipeline obstacle. Unlike the attributed CPI stack these overlap
// across in-flight instructions, so they measure per-instruction
// latency pressure, not wall-clock cycles, and can exceed the run
// length on congested queues.
type LatencyWaits struct {
	RegDep       int64 `json:"reg_dep"`
	ROBFull      int64 `json:"rob_full"`
	MemQueueFull int64 `json:"memq_full"`
	MemDep       int64 `json:"mem_dep"`
	FUBusy       int64 `json:"fu_busy"`
}

// SpadConflicts is one scratchpad's bank-conflict heatmap.
type SpadConflicts struct {
	Spad    string  `json:"spad"`
	PerBank []int64 `json:"per_bank_extra_cycles"`
	Total   int64   `json:"total_extra_cycles"`
}

// Report is the materialized, JSON-serializable form of a Profile.
type Report struct {
	Label         string          `json:"label,omitempty"`
	Meta          RunMeta         `json:"machine"`
	Cycles        int64           `json:"cycles"`
	Instructions  int64           `json:"instructions"`
	CPI           float64         `json:"cpi"`
	Branches      int64           `json:"branches_taken"`
	DMABytes      int64           `json:"dma_bytes"`
	DMACycles     int64           `json:"dma_cycles"`
	Stalls        []CauseShare    `json:"stall_attribution"`
	Latency       LatencyWaits    `json:"latency_waits"`
	Opcodes       []OpcodeProfile `json:"opcodes"`
	FUs           []FUUtil        `json:"fu_utilization"`
	BankConflicts []SpadConflicts `json:"bank_conflicts"`
	// Faults lists injected-fault events per model kind; empty (and
	// omitted from JSON) on fault-free runs, so existing reports are
	// unchanged.
	Faults []FaultCount `json:"faults,omitempty"`
}

// Report materializes the rollup. topN bounds the opcode histogram
// (<= 0 means all opcodes seen).
func (p *Profile) Report(topN int) *Report {
	r := &Report{
		Label:        p.Label,
		Meta:         p.meta,
		Cycles:       p.total,
		Instructions: p.insts,
		Branches:     p.branches,
		DMABytes:     p.dmaBytes,
		DMACycles:    p.dmaCycles,
		Latency:      p.lat,
	}
	if p.insts > 0 {
		r.CPI = float64(p.total) / float64(p.insts)
	}
	pct := func(c int64) float64 {
		if p.total == 0 {
			return 0
		}
		return 100 * float64(c) / float64(p.total)
	}
	for i, c := range p.causes {
		r.Stalls = append(r.Stalls, CauseShare{Cause: Cause(i).String(), Cycles: c, Percent: pct(c)})
	}
	sort.SliceStable(r.Stalls, func(i, j int) bool { return r.Stalls[i].Cycles > r.Stalls[j].Cycles })
	for op := 1; op < len(p.opCycles); op++ {
		if p.opCount[op] == 0 {
			continue
		}
		r.Opcodes = append(r.Opcodes, OpcodeProfile{
			Op:          core.Opcode(op).String(),
			Count:       p.opCount[op],
			Cycles:      p.opCycles[op],
			StallCycles: p.opStall[op],
			Percent:     pct(p.opCycles[op]),
		})
	}
	sort.SliceStable(r.Opcodes, func(i, j int) bool {
		if r.Opcodes[i].Cycles != r.Opcodes[j].Cycles {
			return r.Opcodes[i].Cycles > r.Opcodes[j].Cycles
		}
		return r.Opcodes[i].Op < r.Opcodes[j].Op
	})
	if topN > 0 && len(r.Opcodes) > topN {
		r.Opcodes = r.Opcodes[:topN]
	}
	for fu := 0; fu < NumFUs; fu++ {
		util := 0.0
		if p.total > 0 {
			util = float64(p.fuBusy[fu]) / float64(p.total)
		}
		r.FUs = append(r.FUs, FUUtil{
			FU:          FU(fu).String(),
			Ops:         p.fuOps[fu],
			BusyCycles:  p.fuBusy[fu],
			Utilization: util,
		})
	}
	if len(p.faults) > 0 {
		r.Faults = make([]FaultCount, len(p.faults))
		copy(r.Faults, p.faults)
		sort.SliceStable(r.Faults, func(i, j int) bool { return r.Faults[i].Kind < r.Faults[j].Kind })
	}
	names := make([]string, 0, len(p.conflicts))
	for name := range p.conflicts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		banks := p.conflicts[name]
		var total int64
		for _, v := range banks {
			total += v
		}
		out := make([]int64, len(banks))
		copy(out, banks)
		r.BankConflicts = append(r.BankConflicts, SpadConflicts{Spad: name, PerBank: out, Total: total})
	}
	return r
}

// Render formats the report as the `camsim -profile` text table.
func (r *Report) Render() string {
	var b strings.Builder
	label := r.Label
	if label == "" {
		label = "run"
	}
	fmt.Fprintf(&b, "profile: %s  cycles=%d instructions=%d CPI=%.2f branches=%d\n",
		label, r.Cycles, r.Instructions, r.CPI, r.Branches)

	fmt.Fprintf(&b, "stall attribution (every cycle charged to one cause):\n")
	var sum int64
	for _, s := range r.Stalls {
		if s.Cycles == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %12d  %5.1f%%\n", s.Cause, s.Cycles, s.Percent)
		sum += s.Cycles
	}
	fmt.Fprintf(&b, "  %-10s %12d  %5.1f%%\n", "total", sum, 100.0)

	l := r.Latency
	if l.RegDep+l.ROBFull+l.MemQueueFull+l.MemDep+l.FUBusy > 0 {
		fmt.Fprintf(&b, "per-instruction wait totals (overlap across instructions):\n")
		fmt.Fprintf(&b, "  reg-dep %d  rob-full %d  memq-full %d  mem-dep %d  fu-busy %d\n",
			l.RegDep, l.ROBFull, l.MemQueueFull, l.MemDep, l.FUBusy)
	}

	if len(r.Opcodes) > 0 {
		fmt.Fprintf(&b, "per-opcode attributed cycles:\n")
		for _, o := range r.Opcodes {
			avg := float64(o.Cycles) / float64(o.Count)
			fmt.Fprintf(&b, "  %-8s %8d ops %12d cyc  %5.1f%%  avg %7.1f  stall %d\n",
				o.Op, o.Count, o.Cycles, o.Percent, avg, o.StallCycles)
		}
	}

	fmt.Fprintf(&b, "functional units:\n")
	for _, f := range r.FUs {
		if f.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-8s %8d ops %12d busy  %5.1f%% utilized\n",
			f.FU, f.Ops, f.BusyCycles, 100*f.Utilization)
	}

	if r.DMABytes > 0 {
		fmt.Fprintf(&b, "dma: %d bytes in %d transfer cycles\n", r.DMABytes, r.DMACycles)
	}

	if len(r.BankConflicts) > 0 {
		fmt.Fprintf(&b, "bank-conflict heatmap (extra serialization cycles per bank):\n")
		for _, s := range r.BankConflicts {
			fmt.Fprintf(&b, "  %-12s total %-8d %v\n", s.Spad, s.Total, s.PerBank)
		}
	}

	if len(r.Faults) > 0 {
		fmt.Fprintf(&b, "injected faults:\n")
		for _, f := range r.Faults {
			fmt.Fprintf(&b, "  %-12s %d\n", f.Kind, f.Count)
		}
	}
	return b.String()
}
