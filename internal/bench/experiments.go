package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"cambricon/internal/baseline/dadiannao"
	"cambricon/internal/baseline/genarch"
	"cambricon/internal/core"
	"cambricon/internal/energy"
	"cambricon/internal/workload"
)

// Experiment reproduces one table or figure.
type Experiment struct {
	// ID is the short identifier used by cmd/camrepro (-exp flag).
	ID string
	// Run executes the experiment over the shared suite.
	Run func(s *Suite) (*Table, error)
}

// Experiments lists every reproduced table and figure in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"tab1", RunTableI},
		{"tab2", RunTableII},
		{"tab3", RunTableIII},
		{"flex", RunFlexibility},
		{"fig10", RunFig10},
		{"fig11", RunFig11},
		{"fig12", RunFig12},
		{"fig13", RunFig13},
		{"tab4", RunTableIV},
		{"logreg", RunLogistic},
		{"ablate", RunAblations},
		{"sweep", RunMMVSweep},
	}
}

// ExperimentByID resolves one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunTableI regenerates the ISA overview from the live opcode table.
func RunTableI(s *Suite) (*Table, error) {
	t := &Table{ID: "tab1", Title: "Overview of Cambricon instructions",
		Header: []string{"Instruction Type", "Count", "Examples", "Operands"}}
	groups := []struct {
		label string
		typ   core.Type
		split func(core.Opcode) bool
	}{
		{"Control", core.TypeControl, nil},
		{"Data Transfer", core.TypeDataTransfer, nil},
		{"Computational / Matrix", core.TypeMatrix, nil},
		{"Computational+Logical / Vector", core.TypeVector, nil},
		{"Computational+Logical / Scalar", core.TypeScalar, nil},
	}
	total := 0
	for _, grp := range groups {
		var names []string
		operandKinds := map[string]bool{}
		for _, op := range core.Opcodes() {
			if op.Type() != grp.typ {
				continue
			}
			names = append(names, op.String())
			for _, role := range op.Roles() {
				operandKinds[role.String()] = true
			}
			if op.Format().Tail != core.TailNone {
				operandKinds["immediate"] = true
			}
		}
		total += len(names)
		t.AddRow(grp.label, fmt.Sprintf("%d", len(names)), join(names, 10),
			joinSorted(operandKinds))
	}
	t.AddRow("Total", fmt.Sprintf("%d", total), "")
	t.Notef("the paper reports 43 instructions (Section V-B1); this build defines %d", core.NumInstructions)
	return t, nil
}

// RunTableII regenerates the accelerator parameters.
func RunTableII(s *Suite) (*Table, error) {
	c := s.Config
	t := &Table{ID: "tab2", Title: "Prototype accelerator parameters (Table II)",
		Header: []string{"Parameter", "Value", "Paper"}}
	t.AddRow("issue width", fmt.Sprintf("%d", c.IssueWidth), "2")
	t.AddRow("depth of issue queue", fmt.Sprintf("%d", c.IssueQueueDepth), "24")
	t.AddRow("depth of memory queue", fmt.Sprintf("%d", c.MemQueueDepth), "32")
	t.AddRow("depth of reorder buffer", fmt.Sprintf("%d", c.ROBDepth), "64")
	t.AddRow("vector scratchpad capacity", fmt.Sprintf("%dKB", c.VectorSpadBytes>>10), "64KB")
	t.AddRow("matrix scratchpad capacity", fmt.Sprintf("%dKB (24KB x 32)", c.MatrixSpadBytes>>10), "768KB")
	t.AddRow("bank width", fmt.Sprintf("%d bits (32 x 16-bit)", c.BankBytes*8), "512 bits")
	t.AddRow("matrix function unit", fmt.Sprintf("%d (%dx%d) MACs", c.MatrixBlocks*c.MACsPerBlock, c.MatrixBlocks, c.MACsPerBlock), "1024 (32x32)")
	t.AddRow("vector function unit", fmt.Sprintf("%d lanes", c.VectorLanes), "32")
	return t, nil
}

// RunTableIII regenerates the benchmark roster.
func RunTableIII(s *Suite) (*Table, error) {
	t := &Table{ID: "tab3", Title: "Benchmark networks (Table III)",
		Header: []string{"Technique", "Network Structure", "Description"}}
	for _, b := range workload.Benchmarks() {
		t.AddRow(b.Name, b.Structure, b.Description)
	}
	return t, nil
}

// RunFlexibility regenerates the Section V-B1 coverage comparison: every
// benchmark both passes the DaDianNao expressibility check and actually
// runs (with verified outputs) on the Cambricon simulator. The last
// column pins each program's verified output bytes (outputDigest), so a
// change to any computed value shows in the record.
func RunFlexibility(s *Suite) (*Table, error) {
	t := &Table{ID: "flex", Title: "ISA flexibility over the ten benchmarks",
		Header: []string{"Benchmark", "DaDianNao", "Cambricon", "Cambricon code length", "Output SHA-256"}}
	ddn, camb := 0, 0
	for _, b := range workload.Benchmarks() {
		b := b
		ddnOK := dadiannao.CanExpress(&b)
		if ddnOK {
			ddn++
		}
		p, err := s.Program(b.Name)
		if err != nil {
			return nil, err
		}
		if _, err := s.Stats(b.Name); err != nil {
			return nil, fmt.Errorf("bench: %s failed on Cambricon-ACC: %w", b.Name, err)
		}
		camb++
		digest, err := s.outputDigest(b.Name)
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Name, yesNo(ddnOK), "yes (verified)", fmt.Sprintf("%d", p.Len()), digest)
	}
	t.AddRow("Total", fmt.Sprintf("%d/10", ddn), fmt.Sprintf("%d/10", camb), "", "")
	t.Notef("paper: DaDianNao expresses 3/10 (MLP, CNN, RBM); Cambricon all 10 (Section V-B1)")
	t.Notef("output SHA-256: first 16 hex digits of the digest of the verified output bytes (codegen.Program.Output)")
	return t, nil
}

// outputDigest returns the first 16 hex digits of the SHA-256 of the
// named benchmark's verified output (codegen.Program.Output), running the
// benchmark first if no run has verified it yet.
func (s *Suite) outputDigest(name string) (string, error) {
	if _, err := s.Stats(name); err != nil {
		return "", err
	}
	b, err := s.lookup(name)
	if err != nil {
		return "", err
	}
	out := b.out.Load()
	if out == nil {
		return "", fmt.Errorf("bench: %s: no verified output", name)
	}
	sum := sha256.Sum256(*out)
	return hex.EncodeToString(sum[:8]), nil
}

// Published Fig. 10 reference points.
var paperFig10 = map[string][3]float64{ // GPU, x86, MIPS
	"MLP":     {13.62, 22.62, 32.92},
	"CNN":     {1.09, 5.90, 8.27},
	"average": {6.41, 9.86, 13.38},
}

// RunFig10 regenerates the code-density comparison.
func RunFig10(s *Suite) (*Table, error) {
	t := &Table{ID: "fig10", Title: "Code-length reduction of Cambricon over GPU, x86, MIPS",
		Header: []string{"Benchmark", "Cambricon", "GPU", "x86", "MIPS",
			"GPU/Camb", "x86/Camb", "MIPS/Camb"}}
	archs := []genarch.Arch{genarch.GPU(), genarch.X86(), genarch.MIPS()}
	var ratios [3][]float64
	for _, b := range workload.Benchmarks() {
		b := b
		p, err := s.Program(b.Name)
		if err != nil {
			return nil, err
		}
		camb := p.Len()
		var lens [3]int
		row := []string{b.Name, fmt.Sprintf("%d", camb)}
		for i, a := range archs {
			lens[i] = a.CodeLength(&b)
			row = append(row, fmt.Sprintf("%d", lens[i]))
		}
		for i := range archs {
			r := float64(lens[i]) / float64(camb)
			ratios[i] = append(ratios[i], r)
			row = append(row, fmt.Sprintf("%.2fx", r))
		}
		t.Rows = append(t.Rows, row)
	}
	avgRow := []string{"average (geomean)", "", "", "", ""}
	for i := range archs {
		avgRow = append(avgRow, fmt.Sprintf("%.2fx", geomean(ratios[i])))
	}
	t.Rows = append(t.Rows, avgRow)
	t.Notef("paper averages: GPU %.2fx, x86 %.2fx, MIPS %.2fx", paperFig10["average"][0],
		paperFig10["average"][1], paperFig10["average"][2])
	t.Notef("paper MLP: %.2f/%.2f/%.2f; paper CNN: %.2f/%.2f/%.2f (GPU/x86/MIPS)",
		paperFig10["MLP"][0], paperFig10["MLP"][1], paperFig10["MLP"][2],
		paperFig10["CNN"][0], paperFig10["CNN"][1], paperFig10["CNN"][2])
	t.Notef("conservative for Cambricon: the generated programs include verification stores (per-step probabilities/draws) the paper's hand assembly would omit")
	return t, nil
}

// Published Fig. 11 average percentages.
var paperFig11 = map[core.Type]float64{
	core.TypeDataTransfer: 38.0,
	core.TypeControl:      4.8,
	core.TypeMatrix:       12.6,
	core.TypeVector:       33.8,
	core.TypeScalar:       10.9,
}

// RunFig11 regenerates the instruction-type breakdown of the generated
// Cambricon programs, both static (listing) and dynamic (executed).
func RunFig11(s *Suite) (*Table, error) {
	t := &Table{ID: "fig11", Title: "Instruction-type percentages per benchmark",
		Header: []string{"Benchmark", "mix", "data transfer", "control", "matrix", "vector", "scalar"}}
	staticSums := map[core.Type]float64{}
	dynSums := map[core.Type]float64{}
	progs, err := s.Programs()
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		mix := p.TypeMix()
		total := float64(p.Len())
		row := []string{p.Name, "static"}
		for _, typ := range core.Types() {
			pct := 100 * float64(mix[typ]) / total
			staticSums[typ] += pct
			row = append(row, fmt.Sprintf("%.1f%%", pct))
		}
		t.Rows = append(t.Rows, row)
		st, err := s.Stats(p.Name)
		if err != nil {
			return nil, err
		}
		dynRow := []string{"", "dynamic"}
		for _, typ := range core.Types() {
			pct := 100 * float64(st.ByType[typ]) / float64(st.Instructions)
			dynSums[typ] += pct
			dynRow = append(dynRow, fmt.Sprintf("%.1f%%", pct))
		}
		t.Rows = append(t.Rows, dynRow)
	}
	for _, avg := range []struct {
		label string
		sums  map[core.Type]float64
	}{{"average (static)", staticSums}, {"average (dynamic)", dynSums}} {
		row := []string{avg.label, ""}
		for _, typ := range core.Types() {
			row = append(row, fmt.Sprintf("%.1f%%", avg.sums[typ]/float64(len(progs))))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notef("paper averages: data transfer %.1f%%, control %.1f%%, matrix %.1f%%, vector %.1f%%, scalar %.1f%%",
		paperFig11[core.TypeDataTransfer], paperFig11[core.TypeControl],
		paperFig11[core.TypeMatrix], paperFig11[core.TypeVector], paperFig11[core.TypeScalar])
	return t, nil
}

// RunFig12 regenerates the speedup comparison.
func RunFig12(s *Suite) (*Table, error) {
	t := &Table{ID: "fig12", Title: "Speedup of Cambricon-ACC over x86-CPU, GPU, DaDianNao",
		Header: []string{"Benchmark", "Cambricon-ACC", "x86/Camb", "GPU/Camb", "DaDianNao/Camb"}}
	cpu, gpu := genarch.CPUPerf(), genarch.GPUPerf()
	var cpuR, gpuR, ddnR []float64
	for _, b := range workload.Benchmarks() {
		b := b
		tc, err := s.Seconds(b.Name)
		if err != nil {
			return nil, err
		}
		rc := cpu.Seconds(&b) / tc
		rg := gpu.Seconds(&b) / tc
		cpuR = append(cpuR, rc)
		gpuR = append(gpuR, rg)
		ddnCell := "n/a (inexpressible)"
		if cycles, _, ok, err := s.DaDianNao(b.Name); err != nil {
			return nil, err
		} else if ok {
			rd := dadiannao.DefaultConfig().Seconds(cycles) / tc
			ddnR = append(ddnR, rd)
			ddnCell = fmt.Sprintf("%.3fx", rd)
		}
		t.AddRow(b.Name, fmt.Sprintf("%.1f us", tc*1e6),
			fmt.Sprintf("%.1fx", rc), fmt.Sprintf("%.2fx", rg), ddnCell)
	}
	t.AddRow("average (geomean)", "",
		fmt.Sprintf("%.1fx", geomean(cpuR)), fmt.Sprintf("%.2fx", geomean(gpuR)),
		fmt.Sprintf("%.3fx", geomean(ddnR)))
	t.Notef("paper averages: x86 91.72x, GPU 3.09x, DaDianNao 0.955x (Cambricon-ACC 4.5%% slower on the 3 shared benchmarks)")
	return t, nil
}

// RunFig13 regenerates the energy comparison.
func RunFig13(s *Suite) (*Table, error) {
	t := &Table{ID: "fig13", Title: "Energy of GPU and DaDianNao relative to Cambricon-ACC",
		Header: []string{"Benchmark", "Cambricon-ACC", "GPU/Camb", "DaDianNao/Camb"}}
	gpu := genarch.GPUPerf()
	var gpuR, ddnR []float64
	for _, b := range workload.Benchmarks() {
		b := b
		st, err := s.Stats(b.Name)
		if err != nil {
			return nil, err
		}
		ec := energy.CambriconEnergyJoules(&st, s.Config.ClockHz)
		rg := gpu.EnergyJoules(&b) / ec
		gpuR = append(gpuR, rg)
		ddnCell := "n/a (inexpressible)"
		if _, act, ok, err := s.DaDianNao(b.Name); err != nil {
			return nil, err
		} else if ok {
			ed := energy.DaDianNaoEnergyJoules(&act, 1e9)
			rd := ed / ec
			ddnR = append(ddnR, rd)
			ddnCell = fmt.Sprintf("%.3fx", rd)
		}
		t.AddRow(b.Name, fmt.Sprintf("%.2f uJ", ec*1e6), fmt.Sprintf("%.1fx", rg), ddnCell)
	}
	t.AddRow("average (geomean)", "", fmt.Sprintf("%.1fx", geomean(gpuR)),
		fmt.Sprintf("%.3fx", geomean(ddnR)))
	t.Notef("paper averages: GPU 130.53x, DaDianNao 0.916x")
	return t, nil
}

// RunTableIV regenerates the layout table.
func RunTableIV(s *Suite) (*Table, error) {
	t := &Table{ID: "tab4", Title: "Layout characteristics of Cambricon-ACC (1 GHz, TSMC 65nm)",
		Header: []string{"Component", "Area(um^2)", "(%)", "Power(mW)", "(%)"}}
	rows := energy.Layout()
	total := rows[0]
	for _, c := range rows {
		powerPct := "-"
		if c.PowerMW > 0 {
			powerPct = fmt.Sprintf("%.2f%%", 100*c.PowerMW/total.PowerMW)
		}
		t.AddRow(c.Name, fmt.Sprintf("%.0f", c.AreaUm2),
			fmt.Sprintf("%.2f%%", 100*c.AreaUm2/total.AreaUm2),
			fmt.Sprintf("%.2f", c.PowerMW), powerPct)
	}
	t.Notef("area overhead vs re-implemented DaDianNao (55.34 mm^2): %.1f%% (paper: 1.6%%)",
		100*(energy.TotalAreaUm2/energy.DaDianNaoAreaUm2-1))
	return t, nil
}

// RunLogistic regenerates the Section VI extension: both logistic
// regression phases run on the Cambricon simulator — the prediction phase
// (dot product + scalar sigmoid, and the batched single-MMV form) and the
// training phase (one batch gradient step via MMV/VMM) — each verified
// against the float reference.
func RunLogistic(s *Suite) (*Table, error) {
	t := &Table{ID: "logreg", Title: "Logistic regression on Cambricon (Section VI)",
		Header: []string{"Phase", "Code length", "Cycles", "Verified"}}
	pred, err := codegenLogistic(s.Seed)
	if err != nil {
		return nil, err
	}
	stPred, err := runProgram(s, pred)
	if err != nil {
		return nil, err
	}
	t.AddRow("prediction (single + batch via MMV)",
		fmt.Sprintf("%d", pred.Len()), fmt.Sprintf("%d", stPred.Cycles), "yes")
	train, err := codegenLogisticTraining(s.Seed)
	if err != nil {
		return nil, err
	}
	stTrain, err := runProgram(s, train)
	if err != nil {
		return nil, err
	}
	t.AddRow("training (batch gradient step via MMV+VMM)",
		fmt.Sprintf("%d", train.Len()), fmt.Sprintf("%d", stTrain.Cycles), "yes")
	t.Notef("batch size %d, dimension %d", 32, 16)
	return t, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func join(names []string, max int) string {
	if len(names) <= max {
		return fmt.Sprintf("%v", names)
	}
	return fmt.Sprintf("%v...", names[:max])
}

func joinSorted(set map[string]bool) string {
	var keys []string
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
