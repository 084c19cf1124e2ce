package sim

import (
	"strings"
	"testing"
)

// TestValidateDefaultsHotPathDivisors: every divisor the timing model uses
// (ceilDiv arguments, BankBytes line math, DMA rate) must be defaulted to a
// positive value by validate, so ceilDiv needs no per-call clamp.
func TestValidateDefaultsHotPathDivisors(t *testing.T) {
	var c Config // all zero
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	positive := map[string]int{
		"VectorLanes":      c.VectorLanes,
		"MatrixBlocks":     c.MatrixBlocks,
		"MACsPerBlock":     c.MACsPerBlock,
		"BankBytes":        c.BankBytes,
		"SpadBanks":        c.SpadBanks,
		"DMABytesPerCycle": c.DMABytesPerCycle,
		"CordicBeatCycles": c.CordicBeatCycles,
		"DivBeatCycles":    c.DivBeatCycles,
		"VectorSpadBytes":  c.VectorSpadBytes,
		"MatrixSpadBytes":  c.MatrixSpadBytes,
		"MainMemBytes":     c.MainMemBytes,
	}
	for name, v := range positive {
		if v <= 0 {
			t.Errorf("validate left %s = %d", name, v)
		}
	}
	// A fully-zero config must now build a working machine (previously the
	// scratchpad constructor panicked on zero geometry).
	if _, err := New(Config{}); err != nil {
		t.Errorf("New(zero config): %v", err)
	}
}

func TestValidateRejectsNonPowerOfTwoBanks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SpadBanks = 3
	_, err := New(cfg)
	if err == nil {
		t.Fatal("SpadBanks=3 accepted")
	}
	if !strings.Contains(err.Error(), "power of two") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestValidateNegativeOverheadsClamped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HTreeOverhead = -5
	cfg.DMAStartupCycles = -1
	cfg.BranchPenaltyCycles = -2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Config()
	if got.HTreeOverhead != 0 || got.DMAStartupCycles != 0 || got.BranchPenaltyCycles != 0 {
		t.Errorf("negative overheads not clamped: %+v", got)
	}
}

// TestConfigBoundsAdmitTheirLimits pins the bounds themselves: each
// allocation-sizing field is accepted at its limit and rejected, by
// name, past it. (The configurations the repo builds — DefaultConfig,
// the ablations, the sweeps, the shrunken pipelines of the timing tests —
// run through validate in their own tests.)
func TestConfigBoundsAdmitTheirLimits(t *testing.T) {
	for _, c := range []struct {
		field string
		limit int
		set   func(*Config, int)
	}{
		{"MainMemBytes", maxMemBytes, func(c *Config, v int) { c.MainMemBytes = v }},
		{"VectorSpadBytes", maxMemBytes, func(c *Config, v int) { c.VectorSpadBytes = v }},
		{"MatrixSpadBytes", maxMemBytes, func(c *Config, v int) { c.MatrixSpadBytes = v }},
		{"IssueQueueDepth", maxEntries, func(c *Config, v int) { c.IssueQueueDepth = v }},
		{"ROBDepth", maxEntries, func(c *Config, v int) { c.ROBDepth = v }},
		{"MemQueueDepth", maxEntries, func(c *Config, v int) { c.MemQueueDepth = v }},
		{"SpadBanks", maxEntries, func(c *Config, v int) { c.SpadBanks = v }},
	} {
		cfg := DefaultConfig()
		c.set(&cfg, c.limit)
		if err := cfg.validate(); err != nil {
			t.Errorf("%s at its limit %d: %v", c.field, c.limit, err)
		}
		cfg = DefaultConfig()
		c.set(&cfg, 2*c.limit) // past it, and still a power of two for SpadBanks
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("%s at %d: error = %v, want it rejected by name", c.field, 2*c.limit, err)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.validate(); err != nil {
		t.Errorf("DefaultConfig: %v", err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct {
		a, b int
		want int64
	}{
		{0, 32, 0},
		{1, 32, 1},
		{32, 32, 1},
		{33, 32, 2},
		{64, 32, 2},
		{1023, 32, 32},
		{1024, 32, 32},
		{1025, 32, 33},
		{7, 1, 7},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestDegenerateGeometryStillRuns drives a vector+matrix kernel through a
// machine built from a config with every hot-path divisor left zero: the
// validated defaults must keep ceilDiv's divisors positive end to end.
func TestDegenerateGeometryStillRuns(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog := mustAssemble(t, `
	SMOVE $1, #32
	SMOVE $2, #0
	SMOVE $3, #4096
	SMOVE $4, #0
	RV    $2, $1
	VAV   $3, $1, $2, $2
	MMV   $3, $1, $4, $2, $1
`)
	m.LoadProgram(prog.Instructions)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
