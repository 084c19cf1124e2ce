package fault

import (
	"errors"
	"reflect"
	"testing"
)

type fakeState struct {
	gprReg, gprBit uint8
	gprCalls       int
	spadSpace      Space
	spadWord       int
	spadBit        uint8
	spadCalls      int
}

func (s *fakeState) FlipGPRBit(reg, bit uint8) {
	s.gprCalls++
	s.gprReg, s.gprBit = reg, bit
}

func (s *fakeState) FlipSpadBit(space Space, word int, bit uint8) bool {
	s.spadCalls++
	s.spadSpace, s.spadWord, s.spadBit = space, word, bit
	return true
}

func TestSingleGPRFiresOnce(t *testing.T) {
	inj := New(Fault{Model: ModelGPRBit, At: 5, Reg: 3, Bit: 7})
	st := &fakeState{}
	inj.BeginRun()
	for i := int64(0); i < 10; i++ {
		inj.BeforeExec(i, st)
	}
	if st.gprCalls != 1 || st.gprReg != 3 || st.gprBit != 7 {
		t.Fatalf("gpr flip: calls=%d reg=%d bit=%d", st.gprCalls, st.gprReg, st.gprBit)
	}
	// Re-armed after BeginRun.
	inj.BeginRun()
	inj.BeforeExec(5, st)
	if st.gprCalls != 2 {
		t.Fatalf("BeginRun did not re-arm: calls=%d", st.gprCalls)
	}
}

func TestSingleSpadTargetsWord(t *testing.T) {
	inj := New(Fault{Model: ModelSpadBit, At: 0, Space: SpaceMatrix, Word: 42, Bit: 11})
	st := &fakeState{}
	inj.BeginRun()
	inj.BeforeExec(0, st)
	if st.spadCalls != 1 || st.spadSpace != SpaceMatrix || st.spadWord != 42 || st.spadBit != 11 {
		t.Fatalf("spad flip: %+v", st)
	}
}

func TestSingleFetchFlipsOneBit(t *testing.T) {
	inj := New(Fault{Model: ModelFetchBit, At: 2, Bit: 63})
	inj.BeginRun()
	if got := inj.CorruptFetch(1, 0); got != 0 {
		t.Fatalf("fired early: %x", got)
	}
	if got := inj.CorruptFetch(2, 0); got != 1<<63 {
		t.Fatalf("bit 63 flip: got %x", got)
	}
	if got := inj.CorruptFetch(2, 0); got != 0 {
		t.Fatalf("fired twice: %x", got)
	}
}

func TestSingleDMAFiresAtOrAfter(t *testing.T) {
	inj := New(Fault{Model: ModelDMABit, At: 10, Byte: 5, Bit: 3})
	inj.BeginRun()
	data := make([]byte, 4)
	if inj.CorruptDMA(9, data) {
		t.Fatal("fired before At")
	}
	// First DMA at or after At fires; Byte reduced mod len.
	if !inj.CorruptDMA(12, data) {
		t.Fatal("did not fire at idx >= At")
	}
	if data[5%4] != 1<<3 {
		t.Fatalf("payload: %v", data)
	}
	if inj.CorruptDMA(13, data) {
		t.Fatal("fired twice")
	}
}

func TestSingleStuckLane(t *testing.T) {
	inj := New(Fault{Model: ModelStuckLane, Unit: UnitMatrix, Lane: 9, Bit: 30, Val: 1})
	if _, ok := inj.StuckLane(UnitVector); ok {
		t.Fatal("wrong unit matched")
	}
	st, ok := inj.StuckLane(UnitMatrix)
	if !ok || st.Lane != 9 || st.Bit != 30%16 || st.Val != 1 {
		t.Fatalf("stuck: %+v ok=%v", st, ok)
	}
}

func TestSitesDeterministicAndBounded(t *testing.T) {
	geo := Geometry{
		Instructions:    100,
		GPRs:            64,
		VectorSpadWords: 1024,
		MatrixSpadWords: 4096,
		VectorLanes:     32,
		MatrixLanes:     1024,
	}
	a := SitesOf(42, 50, geo, nil)
	b := SitesOf(42, 50, geo, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sites")
	}
	c := SitesOf(43, 50, geo, nil)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical sites")
	}
	counts := map[Model]int{}
	for _, f := range a {
		counts[f.Model]++
		if f.At < 0 || f.At >= geo.Instructions {
			t.Fatalf("At out of range: %+v", f)
		}
		switch f.Model {
		case ModelGPRBit:
			if int(f.Reg) >= geo.GPRs || f.Bit >= 32 {
				t.Fatalf("gpr site out of range: %+v", f)
			}
		case ModelSpadBit:
			limit := geo.VectorSpadWords
			if f.Space == SpaceMatrix {
				limit = geo.MatrixSpadWords
			}
			if f.Word >= limit || f.Bit >= 16 {
				t.Fatalf("spad site out of range: %+v", f)
			}
		case ModelStuckLane:
			limit := geo.VectorLanes
			if f.Unit == UnitMatrix {
				limit = geo.MatrixLanes
			}
			if f.Lane >= limit || f.Bit >= 16 || f.Val > 1 {
				t.Fatalf("lane site out of range: %+v", f)
			}
		}
	}
	// Round-robin: every model appears with 50 sites.
	for m := Model(0); m < NumModels; m++ {
		if counts[m] != 10 {
			t.Fatalf("model %s: %d sites, want 10", m, counts[m])
		}
	}
}

func TestBenchSeedVariesByName(t *testing.T) {
	if BenchSeed(1, "MLP") == BenchSeed(1, "CNN") {
		t.Fatal("benchmark names hash identically")
	}
	if BenchSeed(1, "MLP") != BenchSeed(1, "MLP") {
		t.Fatal("BenchSeed not deterministic")
	}
}

func TestClassify(t *testing.T) {
	golden := Observation{Output: []byte{1, 2, 3}}
	cases := []struct {
		name string
		obs  Observation
		want Outcome
	}{
		{"masked", Observation{Output: []byte{1, 2, 3}}, OutcomeMasked},
		{"sdc", Observation{Output: []byte{1, 2, 4}}, OutcomeSDC},
		{"detected", Observation{Err: errors.New("bad decode")}, OutcomeDetected},
		{"hang", Observation{Hung: true, Err: errors.New("watchdog")}, OutcomeHang},
		{"crash", Observation{Crashed: true, Hung: true}, OutcomeCrash},
	}
	for _, tc := range cases {
		if got := Classify(golden, tc.obs); got != tc.want {
			t.Errorf("%s: got %s want %s", tc.name, got, tc.want)
		}
	}
}

func TestModelTextRoundTrip(t *testing.T) {
	for m := Model(0); m < NumModels; m++ {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Model
		if err := back.UnmarshalText(text); err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Fatalf("round trip %s -> %s", m, back)
		}
	}
	var m Model
	if err := m.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("unknown model accepted")
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		text, _ := o.MarshalText()
		var back Outcome
		if err := back.UnmarshalText(text); err != nil || back != o {
			t.Fatalf("outcome round trip %s: %v", o, err)
		}
	}
}
