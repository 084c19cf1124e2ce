package workload

import "testing"

func TestTenBenchmarksInPaperOrder(t *testing.T) {
	want := []string{"MLP", "CNN", "RNN", "LSTM", "Autoencoder",
		"Sparse Autoencoder", "BM", "RBM", "SOM", "HNN"}
	got := Names()
	if len(got) != 10 {
		t.Fatalf("%d benchmarks, want 10", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("benchmark %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("BM")
	if !ok || b.Name != "BM" {
		t.Fatal("ByName(BM) failed")
	}
	if _, ok := ByName("VGG"); ok {
		t.Error("unknown benchmark resolved")
	}
}

func TestMACCounts(t *testing.T) {
	mlp, _ := ByName("MLP")
	want := int64(64*150 + 150*150 + 150*14)
	if got := mlp.MACs(); got != want {
		t.Errorf("MLP MACs = %d, want %d", got, want)
	}
	cnn, _ := ByName("CNN")
	c1 := int64(28 * 28 * 6 * 25)
	c2 := int64(10 * 10 * 16 * 25 * 6)
	fcs := int64(400*120 + 120*84 + 84*10)
	if got := cnn.MACs(); got != c1+c2+fcs {
		t.Errorf("CNN MACs = %d, want %d", got, c1+c2+fcs)
	}
	bm, _ := ByName("BM")
	if got := bm.MACs(); got != int64(GibbsSteps)*(500*500+500*500) {
		t.Errorf("BM MACs = %d", got)
	}
	rbm, _ := ByName("RBM")
	if rbm.MACs() != int64(GibbsSteps)*2*500*500 {
		t.Errorf("RBM MACs = %d", rbm.MACs())
	}
	// BM carries two full matrices (W and the lateral L); the RBM reuses
	// one W in both directions.
	if bm.ParamBytes() <= rbm.ParamBytes() {
		t.Error("BM must carry more parameters than RBM (lateral matrix)")
	}
}

func TestFeatureAnalysis(t *testing.T) {
	cases := map[string]struct {
		has, lacks Feature
	}{
		"MLP":  {has: FeatFC | FeatSigmoid, lacks: FeatRecurrence | FeatLateral},
		"CNN":  {has: FeatConv | FeatPool, lacks: FeatSample},
		"RNN":  {has: FeatRecurrence, lacks: FeatGating},
		"LSTM": {has: FeatRecurrence | FeatGating, lacks: FeatLateral},
		"BM":   {has: FeatLateral | FeatSample, lacks: FeatConv},
		"RBM":  {has: FeatSample, lacks: FeatLateral},
		"SOM":  {has: FeatBMUSearch, lacks: FeatSigmoid},
		"HNN":  {has: FeatRecurrence, lacks: FeatSample},
		"Autoencoder": {has: FeatWeightUpdate,
			lacks: FeatSparsityPenalty},
		"Sparse Autoencoder": {has: FeatWeightUpdate | FeatSparsityPenalty},
	}
	for name, c := range cases {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		if b.Features&c.has != c.has {
			t.Errorf("%s: missing features %b", name, c.has&^b.Features)
		}
		if b.Features&c.lacks != 0 {
			t.Errorf("%s: unexpected features %b", name, b.Features&c.lacks)
		}
	}
}

func TestWorkCountsPositive(t *testing.T) {
	for _, b := range Benchmarks() {
		if b.MACs() <= 0 && b.Name != "SOM" {
			t.Errorf("%s: MACs = %d", b.Name, b.MACs())
		}
		var vec int64
		for _, o := range b.Ops {
			vec += o.VectorElems()
		}
		if vec <= 0 {
			t.Errorf("%s: no op has element-wise vector work", b.Name)
		}
		if b.ParamBytes() <= 0 {
			t.Errorf("%s: ParamBytes = %d", b.Name, b.ParamBytes())
		}
		if b.Structure == "" || b.Description == "" {
			t.Errorf("%s: missing Table III metadata", b.Name)
		}
	}
}

func TestConvGeometry(t *testing.T) {
	op := Op{Kind: OpConv, InC: 1, InH: 32, InW: 32, OutC: 6, K: 5}
	if op.OutH() != 28 || op.OutW() != 28 {
		t.Errorf("conv out %dx%d", op.OutH(), op.OutW())
	}
	pool := Op{Kind: OpPool, InC: 6, InH: 28, InW: 28, K: 2}
	if pool.OutH() != 14 || pool.OutW() != 14 {
		t.Errorf("pool out %dx%d", pool.OutH(), pool.OutW())
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpFC, OpFCLateral, OpConv, OpPool, OpElemwise, OpSample,
		OpOuterUpdate, OpBackFC, OpDistance, OpArgExtreme}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestTimesDefaultsToOne(t *testing.T) {
	if (Op{}).Times() != 1 {
		t.Error("zero Repeat must mean 1")
	}
	if (Op{Repeat: 5}).Times() != 5 {
		t.Error("Repeat not honored")
	}
}
