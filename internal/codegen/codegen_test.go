package codegen

import (
	"fmt"
	"strings"
	"testing"

	"cambricon/internal/fixed"
	"cambricon/internal/sim"
)

// newSim builds a machine from a known-good configuration, failing the
// test otherwise.
func newSim(t *testing.T, cfg sim.Config) *sim.Machine {
	t.Helper()
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// execute runs a generated program on a fresh Table II machine.
func execute(t *testing.T, p *Program, err error) sim.Stats {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	m := newSim(t, sim.DefaultConfig())
	stats, err := p.Execute(m)
	if err != nil {
		t.Fatalf("%v\nprogram:\n%s", err, p.Source)
	}
	return stats
}

func TestGenMLPRunsAndMatchesReference(t *testing.T) {
	p, err := GenMLP(7)
	stats := execute(t, p, err)
	if stats.MACOps < 64*150+150*150+150*14 {
		t.Errorf("MACs = %d, below workload minimum", stats.MACOps)
	}
	if p.Len() == 0 || p.Len() > 200 {
		t.Errorf("suspicious MLP code length %d", p.Len())
	}
}

func TestGenMLPDeterministicPerSeed(t *testing.T) {
	a, err := GenMLP(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenMLP(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Error("same seed must generate identical source")
	}
	c, err := GenMLP(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Chunks) != len(c.Chunks) {
		t.Fatal("chunk structure should match across seeds")
	}
	same := true
	for i := range a.Chunks {
		for j := range a.Chunks[i].Data {
			if a.Chunks[i].Data[j] != c.Chunks[i].Data[j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds should produce different weights")
	}
}

func TestGenLogisticRunsAndMatchesReference(t *testing.T) {
	p, err := GenLogistic(5)
	execute(t, p, err)
}

func TestGenHNNExactRecall(t *testing.T) {
	p, err := GenHNN(11)
	stats := execute(t, p, err)
	if stats.BranchesTaken == 0 {
		t.Error("HNN should loop")
	}
}

func TestGenSOMTrainsPrototypes(t *testing.T) {
	p, err := GenSOM(21)
	stats := execute(t, p, err)
	if stats.ByType[2] != 0 { // TypeMatrix
		t.Errorf("SOM should use no matrix instructions, got %d", stats.ByType[2])
	}
	if stats.TranscendentalElems == 0 {
		t.Error("SOM should use SEXP")
	}
}

func TestGenRNNMatchesReference(t *testing.T) {
	p, err := GenRNN(13)
	stats := execute(t, p, err)
	if stats.BranchesTaken == 0 {
		t.Error("RNN should loop over timesteps")
	}
}

func TestGenLSTMMatchesReference(t *testing.T) {
	p, err := GenLSTM(19)
	stats := execute(t, p, err)
	wantMACs := int64(8 * (4*(93*26+93*93) + 61*93))
	if stats.MACOps < wantMACs {
		t.Errorf("LSTM MACs = %d, want >= %d", stats.MACOps, wantMACs)
	}
}

func TestGenAutoencoderMatchesReference(t *testing.T) {
	p, err := GenAutoencoder(false, 29)
	execute(t, p, err)
	if p.Name != "Autoencoder" {
		t.Errorf("name %q", p.Name)
	}
}

func TestGenSparseAutoencoderMatchesReference(t *testing.T) {
	p, err := GenAutoencoder(true, 29)
	execute(t, p, err)
	plain, err := GenAutoencoder(false, 29)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() <= plain.Len() {
		t.Error("sparse variant should emit extra penalty instructions")
	}
}

func TestGenBMGibbsChain(t *testing.T) {
	p, err := GenBM(37)
	stats := execute(t, p, err)
	// W (500x500) resident + one full L (as two half tiles) streamed per
	// step: at least (1 + GibbsSteps) full-matrix transfers.
	if stats.DMABytes < int64(500*500*2*(1+4)) {
		t.Errorf("BM DMA bytes = %d, expected tiled L streaming", stats.DMABytes)
	}
}

func TestGenRBMAlternatingGibbs(t *testing.T) {
	p, err := GenRBM(41)
	stats := execute(t, p, err)
	// Two 500x500 contractions per Gibbs step.
	if stats.MACOps != int64(2*4*500*500) {
		t.Errorf("RBM MACs = %d", stats.MACOps)
	}
	// W resident: exactly one matrix load.
	if stats.DMABytes > int64(500*500*2+100000) {
		t.Errorf("RBM DMA bytes = %d, W should load once", stats.DMABytes)
	}
}

func TestGenRBMCDContrastiveDivergence(t *testing.T) {
	p, err := GenRBMCD(41)
	stats := execute(t, p, err)
	if stats.MACOps < 3*500*500 {
		t.Errorf("RBM-CD MACs = %d", stats.MACOps)
	}
	if p.Name != "RBM-CD" {
		t.Errorf("name %q", p.Name)
	}
}

func TestGenCNNLeNet5MatchesReference(t *testing.T) {
	p, err := GenCNN(47)
	stats := execute(t, p, err)
	// LeNet-5 is the scalar/control-heavy benchmark (Section V-B2): its
	// dynamic stream must be dominated by loop bookkeeping.
	mix := stats.ByType
	if mix[4] < mix[3] { // scalar >= vector dynamically
		t.Logf("dynamic mix: %v (informational)", mix)
	}
	// C1 117600 + C2 240000 + FCs 58920 = 416520 exactly.
	if stats.MACOps != 416520 {
		t.Errorf("CNN MACs = %d, want 416520", stats.MACOps)
	}
	if stats.BranchesTaken < 600 {
		t.Errorf("CNN taken branches = %d", stats.BranchesTaken)
	}
}

func TestAllTenBenchmarksGenerateAndVerify(t *testing.T) {
	progs, err := All(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 10 {
		t.Fatalf("%d benchmarks, want 10", len(progs))
	}
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := newSim(t, sim.DefaultConfig())
			if _, err := p.Execute(m); err != nil {
				t.Fatal(err)
			}
			if p.Len() == 0 {
				t.Error("empty program")
			}
		})
	}
}

// TestVerifyRejectsACorruptedOutput is the failing path of
// TestAllTenBenchmarksGenerateAndVerify: after a clean run, one high bit
// flipped in one checked output word must make Verify fail, whether the
// word is compared through Results (MLP) or by a custom check (BM, RBM,
// SOM, RBM-CD). For the custom checks both the lowest and the highest
// word the run wrote are tried: the first lies in the probabilities (or
// SOM's winners) compared against the float reference, the last in the
// final state.
func TestVerifyRejectsACorruptedOutput(t *testing.T) {
	for _, name := range []string{"MLP", "BM", "RBM", "SOM", "RBM-CD"} {
		t.Run(name, func(t *testing.T) {
			p, err := ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig()
			m := newSim(t, cfg)
			if err := p.Init(m); err != nil {
				t.Fatal(err)
			}
			before := make([]byte, cfg.MainMemBytes)
			if err := m.ReadMainBytesInto(0, before); err != nil {
				t.Fatal(err)
			}
			m.LoadProgram(p.Asm.Instructions)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if err := p.Verify(m); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			var words []int
			if len(p.Checks) == 0 {
				words = append(words, p.Results[0].Addr)
			} else {
				after := make([]byte, cfg.MainMemBytes)
				if err := m.ReadMainBytesInto(0, after); err != nil {
					t.Fatal(err)
				}
				lo, hi := -1, -1
				for i := 0; i < len(after); i += 2 {
					if after[i] != before[i] || after[i+1] != before[i+1] {
						if lo < 0 {
							lo = i
						}
						hi = i
					}
				}
				if lo == hi {
					t.Fatal("run changed fewer than two main-memory words")
				}
				words = []int{lo, hi}
			}
			flip := func(addr int) {
				w, err := m.ReadMainNums(addr, 1)
				if err != nil {
					t.Fatal(err)
				}
				w[0] ^= 1 << 14
				if err := m.WriteMainNums(addr, w); err != nil {
					t.Fatal(err)
				}
			}
			for _, addr := range words {
				flip(addr)
				if err := p.Verify(m); err == nil {
					t.Errorf("Verify accepts the run with bit 14 of the word at %d flipped", addr)
				} else {
					t.Logf("word at %d flipped: %v", addr, err)
				}
				flip(addr)
			}
		})
	}
}

// TestCheckReadingPastItsRegionFailsVerify: a check sees only the
// declared output regions, so a read that strays one element past (or
// before) its region fails Verify on a clean run, while the region
// itself reads fine.
func TestCheckReadingPastItsRegionFailsVerify(t *testing.T) {
	for _, name := range []string{"BM", "SOM"} {
		p, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := newSim(t, sim.DefaultConfig())
		if _, err := p.Execute(m); err != nil {
			t.Fatalf("%s clean run: %v", name, err)
		}
		checks := p.Checks
		for _, r := range p.Results {
			for _, c := range []struct {
				what      string
				addr, n   int
				wantError bool
			}{
				{"the region", r.Addr, r.N, false},
				{"one element past it", r.Addr, r.N + 1, true},
				{"one element before it", r.Addr - fixed.Bytes(1), r.N, true},
			} {
				p.Checks = append(checks[:len(checks):len(checks)], func(out Outputs) error {
					_, err := out.ReadNums(c.addr, c.n)
					return err
				})
				err := p.Verify(m)
				if c.wantError != (err != nil) {
					t.Errorf("%s: a check reading %s of %q: Verify error = %v", name, c.what, r.Name, err)
				}
			}
		}
		p.Checks = checks
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("MLP", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByName("Logistic", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByName("Logistic-Training", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByName("RBM-CD", 1); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestStaticInstructionMixesSane(t *testing.T) {
	progs, err := All(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		mix := p.TypeMix()
		total := 0
		for _, n := range mix {
			total += n
		}
		if total != p.Len() {
			t.Errorf("%s: mix total %d != length %d", p.Name, total, p.Len())
		}
	}
	// Table III structural expectations: the CNN's nested loops make it
	// the longest program; the MLP is among the most compact.
	byName := map[string]*Program{}
	for _, p := range progs {
		byName[p.Name] = p
	}
	if byName["CNN"].Len() <= byName["MLP"].Len() {
		t.Error("CNN should emit more static code than MLP")
	}
}

func TestAllBenchmarksAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{2, 31, 97} {
		seed := seed
		progs, err := All(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range progs {
			p := p
			t.Run(fmt.Sprintf("%s/seed%d", p.Name, seed), func(t *testing.T) {
				t.Parallel()
				m := newSim(t, sim.DefaultConfig())
				if _, err := p.Execute(m); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestLogisticAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 5, 123} {
		p, err := GenLogistic(seed)
		if err != nil {
			t.Fatal(err)
		}
		m := newSim(t, sim.DefaultConfig())
		if _, err := p.Execute(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAllocatorAlignmentAndOverflow(t *testing.T) {
	a := alloc{name: "test", cap: 256}
	first := a.take(10)
	if first != 0 {
		t.Errorf("first allocation at %d", first)
	}
	second := a.take(10)
	if second != 64 {
		t.Errorf("allocations must be 64-byte aligned, got %d", second)
	}
	if e := a.takeElems(8); e != 128 {
		t.Errorf("element allocation at %d", e)
	}
	defer func() {
		if recover() == nil {
			t.Error("allocator overflow should panic")
		}
	}()
	a.take(256)
}

func TestGeneratedSourcesAreCommented(t *testing.T) {
	progs, err := All(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if !strings.Contains(p.Source, "//") {
			t.Errorf("%s: generated source has no comments", p.Name)
		}
		if !strings.Contains(p.Source, "Table III") {
			t.Errorf("%s: generated source missing provenance comment", p.Name)
		}
	}
}

func TestGenLogisticTrainingMatchesReference(t *testing.T) {
	p, err := GenLogisticTraining(9)
	execute(t, p, err)
	if p.Name != "Logistic-Training" {
		t.Errorf("name %q", p.Name)
	}
}

// TestFunctionalResultsIndependentOfMicroarchitecture pins the separation
// between the timing model and functional execution: shrinking queues,
// narrowing issue, or collapsing the scratchpad banks changes cycle counts
// but must never change a single output bit.
func TestFunctionalResultsIndependentOfMicroarchitecture(t *testing.T) {
	configs := []func(*sim.Config){
		func(c *sim.Config) {},
		func(c *sim.Config) { c.IssueWidth = 1; c.IssueQueueDepth = 1; c.ROBDepth = 2 },
		func(c *sim.Config) { c.SpadBanks = 1; c.MemQueueDepth = 1 },
		func(c *sim.Config) { c.DMABytesPerCycle = 4; c.BranchPenaltyCycles = 13 },
	}
	for _, name := range []string{"MLP", "HNN", "SOM"} {
		p, err := ByName(name, 17)
		if err != nil {
			t.Fatal(err)
		}
		var golden []int64
		for ci, mod := range configs {
			cfg := sim.DefaultConfig()
			mod(&cfg)
			m := newSim(t, cfg)
			stats, err := p.Execute(m) // Execute verifies outputs already
			if err != nil {
				t.Fatalf("%s config %d: %v", name, ci, err)
			}
			// Also compare the raw output regions bit for bit.
			var sig []int64
			for _, r := range p.Results {
				got, err := m.ReadMainNums(r.Addr, r.N)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range got {
					sig = append(sig, int64(v))
				}
			}
			_ = stats
			if ci == 0 {
				golden = sig
				continue
			}
			if len(sig) != len(golden) {
				t.Fatalf("%s config %d: signature length changed", name, ci)
			}
			for i := range sig {
				if sig[i] != golden[i] {
					t.Fatalf("%s config %d: output bit changed at %d", name, ci, i)
				}
			}
		}
	}
}
