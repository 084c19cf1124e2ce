package workload

import "strings"

// Feature is a computational capability a benchmark requires of an
// architecture. The DaDianNao expressibility analysis (Section V-B1) is a
// set comparison over these features.
type Feature uint16

const (
	// FeatFC: fully-connected (classifier) layers.
	FeatFC Feature = 1 << iota
	// FeatConv: convolutional layers.
	FeatConv
	// FeatPool: pooling layers.
	FeatPool
	// FeatSigmoid: sigmoid/tanh activations.
	FeatSigmoid
	// FeatSample: random sampling against activations (Gibbs, dropout).
	FeatSample
	// FeatRecurrence: a layer feeding its own earlier output back in
	// across timesteps or relaxation iterations.
	FeatRecurrence
	// FeatGating: element-wise products of gate activations (LSTM).
	FeatGating
	// FeatLateral: intra-layer (neuron-to-neuron, fully connected)
	// links, as in Boltzmann machines.
	FeatLateral
	// FeatWeightUpdate: on-device training (outer-product updates) is
	// part of the benchmark, not just inference.
	FeatWeightUpdate
	// FeatSparsityPenalty: KL-divergence sparsity terms during training.
	FeatSparsityPenalty
	// FeatBMUSearch: best-matching-unit distance search and
	// neighborhood-weighted updates (SOM).
	FeatBMUSearch
)

// Benchmark is one of the ten Table III networks.
type Benchmark struct {
	// Name is the paper's benchmark name.
	Name string
	// Structure is the Table III "Network Structure" column.
	Structure string
	// Description is the Table III "Description" column.
	Description string
	// Ops is the layer-level work of one benchmark invocation.
	Ops []Op
	// Features are the capabilities the benchmark requires.
	Features Feature
}

// MACs totals multiply-accumulates over all ops and repeats.
func (b *Benchmark) MACs() int64 {
	var s int64
	for _, o := range b.Ops {
		s += o.MACs() * int64(o.Times())
	}
	return s
}

// VectorElems totals element-wise vector work.
func (b *Benchmark) VectorElems() int64 {
	var s int64
	for _, o := range b.Ops {
		s += o.VectorElems() * int64(o.Times())
	}
	return s
}

// TranscendentalElems totals exp/log evaluations.
func (b *Benchmark) TranscendentalElems() int64 {
	var s int64
	for _, o := range b.Ops {
		s += o.TranscendentalElems() * int64(o.Times())
	}
	return s
}

// ParamBytes totals unique parameter bytes (repeats share weights).
func (b *Benchmark) ParamBytes() int64 {
	var s int64
	for _, o := range b.Ops {
		s += o.ParamBytes()
	}
	return s
}

// SeqLen is the synthetic sequence length used for the recurrent benchmarks
// (the paper runs TIMIT utterances; we use a short fixed window so the
// simulated runs stay laptop-scale while exercising the same code paths).
const SeqLen = 8

// GibbsSteps is the number of Gibbs iterations in the BM/RBM benchmarks.
const GibbsSteps = 4

// HopfieldIters is the relaxation iteration count of the HNN benchmark.
const HopfieldIters = 8

// SOMSteps is the number of training inputs for the SOM benchmark.
const SOMSteps = 8

// Benchmarks returns the ten Table III networks in the paper's order.
func Benchmarks() []Benchmark {
	fcSig := func(in, out, repeat int) Op {
		return Op{Kind: OpFC, Act: ActSigmoid, In: in, Out: out, Repeat: repeat}
	}
	return []Benchmark{
		{
			Name:        "MLP",
			Structure:   "input(64) - H1(150) - H2(150) - Output(14)",
			Description: "Multi-Layer Perceptron for anchorperson detection [2]",
			Ops:         []Op{fcSig(64, 150, 1), fcSig(150, 150, 1), fcSig(150, 14, 1)},
			Features:    FeatFC | FeatSigmoid,
		},
		{
			Name:      "CNN",
			Structure: "input(1@32x32) - C1(6@28x28, K:6@5x5) - S1(6@14x14, K:2x2) - C2(16@10x10, K:16@5x5) - S2(16@5x5, K:2x2) - F(120) - F(84) - output(10)",
			Description: "Convolutional neural network (LeNet-5) for hand-written " +
				"character recognition [28]",
			Ops: []Op{
				{Kind: OpConv, Act: ActSigmoid, InC: 1, InH: 32, InW: 32, OutC: 6, K: 5},
				{Kind: OpPool, InC: 6, InH: 28, InW: 28, K: 2},
				{Kind: OpConv, Act: ActSigmoid, InC: 6, InH: 14, InW: 14, OutC: 16, K: 5},
				{Kind: OpPool, InC: 16, InH: 10, InW: 10, K: 2},
				fcSig(400, 120, 1), fcSig(120, 84, 1), fcSig(84, 10, 1),
			},
			Features: FeatFC | FeatConv | FeatPool | FeatSigmoid,
		},
		{
			Name:        "RNN",
			Structure:   "input(26) - H(93) - output(61)",
			Description: "Recurrent neural network on TIMIT database [15]",
			Ops: []Op{
				{Kind: OpFC, Act: ActSigmoid, In: 26 + 93, Out: 93, Repeat: SeqLen},
				fcSig(93, 61, SeqLen),
			},
			Features: FeatFC | FeatSigmoid | FeatRecurrence,
		},
		{
			Name:        "LSTM",
			Structure:   "input(26) - H(93) - output(61)",
			Description: "Long-short-time-memory neural network on TIMIT database [15]",
			Ops: []Op{
				// One FC per gate (input, forget, output sigmoid;
				// candidate tanh), then the element-wise gate
				// combination and the output projection.
				{Kind: OpFC, Act: ActSigmoid, In: 26 + 93, Out: 93, Repeat: SeqLen},
				{Kind: OpFC, Act: ActSigmoid, In: 26 + 93, Out: 93, Repeat: SeqLen},
				{Kind: OpFC, Act: ActSigmoid, In: 26 + 93, Out: 93, Repeat: SeqLen},
				{Kind: OpFC, Act: ActTanh, In: 26 + 93, Out: 93, Repeat: SeqLen},
				{Kind: OpElemwise, Out: 5 * 93, Repeat: SeqLen}, // cell and hidden combine
				fcSig(93, 61, SeqLen),
			},
			Features: FeatFC | FeatSigmoid | FeatRecurrence | FeatGating,
		},
		{
			Name:        "Autoencoder",
			Structure:   "input(320) - H1(200) - H2(100) - H3(50) - Output(10)",
			Description: "A neural network pretrained by auto-encoder on MNIST data set [49]",
			Ops: []Op{
				fcSig(320, 200, 1), fcSig(200, 100, 1), fcSig(100, 50, 1), fcSig(50, 10, 1),
				// One greedy pretraining step of the first layer: decode,
				// backward deltas, tied-weight outer updates.
				{Kind: OpBackFC, Act: ActSigmoid, In: 200, Out: 320},
				{Kind: OpOuterUpdate, In: 320, Out: 200, Repeat: 2},
			},
			Features: FeatFC | FeatSigmoid | FeatWeightUpdate,
		},
		{
			Name:        "Sparse Autoencoder",
			Structure:   "input(320) - H1(200) - H2(100) - H3(50) - Output(10)",
			Description: "A neural network pretrained by sparse auto-encoder on MNIST data set [49]",
			Ops: []Op{
				fcSig(320, 200, 1), fcSig(200, 100, 1), fcSig(100, 50, 1), fcSig(50, 10, 1),
				{Kind: OpBackFC, Act: ActSigmoid, In: 200, Out: 320},
				{Kind: OpElemwise, Out: 200}, // KL sparsity term
				{Kind: OpOuterUpdate, In: 320, Out: 200, Repeat: 2},
			},
			Features: FeatFC | FeatSigmoid | FeatWeightUpdate | FeatSparsityPenalty,
		},
		{
			Name:        "BM",
			Structure:   "V(500) - H(500)",
			Description: "Boltzmann machines on MNIST data set [39]",
			Ops: []Op{
				{Kind: OpFCLateral, Act: ActSigmoid, In: 500, Out: 500, Repeat: GibbsSteps},
				{Kind: OpSample, Out: 500, Repeat: GibbsSteps},
			},
			Features: FeatFC | FeatSigmoid | FeatSample | FeatLateral | FeatRecurrence,
		},
		{
			Name:        "RBM",
			Structure:   "V(500) - H(500)",
			Description: "Restricted Boltzmann machine on MNIST data set [39]",
			// Alternating Gibbs sampling: hidden then visible update per
			// step. Both directions are classifier layers plus sampling,
			// which is why the RBM stays inside DaDianNao's four layer
			// types while the laterally-connected BM does not.
			Ops: []Op{
				fcSig(500, 500, GibbsSteps),
				{Kind: OpSample, Out: 500, Repeat: GibbsSteps},
				// The visible update reuses W transposed (tied weights).
				{Kind: OpFC, Act: ActSigmoid, In: 500, Out: 500,
					Repeat: GibbsSteps, SharedParams: true},
				{Kind: OpSample, Out: 500, Repeat: GibbsSteps},
			},
			Features: FeatFC | FeatSigmoid | FeatSample,
		},
		{
			Name:        "SOM",
			Structure:   "input data(64) - neurons(36)",
			Description: "Self-organizing maps based data mining of seasonal flu [48]",
			Ops: []Op{
				{Kind: OpDistance, In: 64, Out: 36, Repeat: SOMSteps},
				{Kind: OpArgExtreme, In: 36, Repeat: SOMSteps},
				{Kind: OpOuterUpdate, In: 64, Out: 36, Repeat: SOMSteps},
			},
			Features: FeatBMUSearch | FeatWeightUpdate,
		},
		{
			Name:        "HNN",
			Structure:   "vector(5), vector component(100)",
			Description: "Hopfield neural network on hand-written digits data set [36]",
			Ops: []Op{
				{Kind: OpFC, Act: ActSign, In: 100, Out: 100, Repeat: HopfieldIters},
			},
			Features: FeatFC | FeatRecurrence,
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Names lists the benchmark names in Table III order.
func Names() []string {
	bs := Benchmarks()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// featureNames maps each capability bit to a short label.
var featureNames = []struct {
	bit  Feature
	name string
}{
	{FeatFC, "fully-connected layers"},
	{FeatConv, "convolution"},
	{FeatPool, "pooling"},
	{FeatSigmoid, "sigmoid activation"},
	{FeatSample, "random sampling"},
	{FeatRecurrence, "recurrence"},
	{FeatGating, "gating (element-wise gate products)"},
	{FeatLateral, "lateral intra-layer connections"},
	{FeatWeightUpdate, "on-device weight updates"},
	{FeatSparsityPenalty, "sparsity penalty"},
	{FeatBMUSearch, "best-matching-unit search"},
}

// String lists the named capabilities in the feature set.
func (f Feature) String() string {
	var parts []string
	for _, fn := range featureNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
