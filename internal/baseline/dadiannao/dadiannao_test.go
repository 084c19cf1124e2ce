package dadiannao

import (
	"errors"
	"strings"
	"testing"

	"cambricon/internal/workload"
)

func TestFlexibilityThreeOfTen(t *testing.T) {
	// Section V-B1: "the DaDianNao ISA is only capable of expressing MLP,
	// CNN, and RBM, but fails to implement the rest 7 benchmarks".
	want := map[string]bool{
		"MLP": true, "CNN": true, "RBM": true,
		"RNN": false, "LSTM": false, "Autoencoder": false,
		"Sparse Autoencoder": false, "BM": false, "SOM": false, "HNN": false,
	}
	supported := 0
	for _, b := range workload.Benchmarks() {
		b := b
		can := CanExpress(&b)
		if can != want[b.Name] {
			t.Errorf("CanExpress(%s) = %v, want %v", b.Name, can, want[b.Name])
		}
		if can {
			supported++
		}
	}
	if supported != 3 {
		t.Errorf("DaDianNao supports %d/10 benchmarks, paper reports 3/10", supported)
	}
}

func TestCompileSupportedBenchmarks(t *testing.T) {
	for _, name := range []string{"MLP", "CNN", "RBM"} {
		b, _ := workload.ByName(name)
		p, err := Compile(&b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Len() == 0 {
			t.Errorf("%s: empty program", name)
		}
		if p.Len() != len(b.Ops) {
			t.Errorf("%s: %d layer instructions for %d ops", name, p.Len(), len(b.Ops))
		}
	}
}

func TestCompileRejectsWithTypedError(t *testing.T) {
	b, _ := workload.ByName("BM")
	_, err := Compile(&b)
	var ue *UnsupportedError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnsupportedError, got %v", err)
	}
	if ue.Missing&workload.FeatLateral == 0 {
		t.Errorf("BM rejection should cite lateral connections, mask %#x", uint16(ue.Missing))
	}
}

func TestLayerKindMapping(t *testing.T) {
	cnn, _ := workload.ByName("CNN")
	p, err := Compile(&cnn)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []LayerKind{LayerConv, LayerPool, LayerConv, LayerPool,
		LayerClassifier, LayerClassifier, LayerClassifier}
	for i, k := range wantKinds {
		if p.Instructions[i].Kind != k {
			t.Errorf("instruction %d kind %v, want %v", i, p.Instructions[i].Kind, k)
		}
	}
	rbm, _ := workload.ByName("RBM")
	pr, err := Compile(&rbm)
	if err != nil {
		t.Fatal(err)
	}
	foundSample := false
	for _, inst := range pr.Instructions {
		if inst.Sample {
			foundSample = true
		}
	}
	if !foundSample {
		t.Error("RBM should use the sampling path")
	}
}

func TestCyclesScaleWithWork(t *testing.T) {
	cfg := DefaultConfig()
	mlp, _ := workload.ByName("MLP")
	cnn, _ := workload.ByName("CNN")
	pm, _ := Compile(&mlp)
	pc, _ := Compile(&cnn)
	cm, am := cfg.Cycles(pm)
	cc, ac := cfg.Cycles(pc)
	if cm <= 0 || cc <= 0 {
		t.Fatal("non-positive cycles")
	}
	if cc <= cm {
		t.Errorf("CNN (%d cycles) should exceed MLP (%d cycles)", cc, cm)
	}
	if am.MACOps != mlp.MACs() || ac.MACOps != cnn.MACs() {
		t.Error("activity MACs should match workload")
	}
	if am.DMABytes != mlp.ParamBytes() {
		t.Errorf("MLP DMA bytes %d, want %d", am.DMABytes, mlp.ParamBytes())
	}
}

func TestRepeatsReuseWeights(t *testing.T) {
	cfg := DefaultConfig()
	rbm, _ := workload.ByName("RBM")
	p, _ := Compile(&rbm)
	_, act := cfg.Cycles(p)
	// Weights stream once even though the Gibbs chain repeats.
	if act.DMABytes != rbm.ParamBytes() {
		t.Errorf("DMA bytes %d, want %d", act.DMABytes, rbm.ParamBytes())
	}
	// Two FC + two sample layers per Gibbs step.
	if act.Instructions != int64(workload.GibbsSteps*4) {
		t.Errorf("dynamic layer count %d", act.Instructions)
	}
}

func TestLayerKindStrings(t *testing.T) {
	for _, k := range []LayerKind{LayerClassifier, LayerConv, LayerPool, LayerLRN} {
		if s := k.String(); s == "" || s[0] == 'L' {
			t.Errorf("kind %d missing name: %q", k, s)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.Seconds(1e9); got != 1 {
		t.Errorf("Seconds(1e9) = %v", got)
	}
}

func TestUnsupportedErrorMessage(t *testing.T) {
	b, _ := workload.ByName("LSTM")
	_, err := Compile(&b)
	if err == nil {
		t.Fatal("LSTM must not compile")
	}
	msg := err.Error()
	for _, want := range []string{"LSTM", "recurrence", "gating"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
