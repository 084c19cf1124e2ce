package bench

import (
	"strings"
	"testing"
)

func checkBaseline() *HostReport {
	return &HostReport{
		Schema:    HostSchema,
		Benchmark: hostBenchmark,
		Entries: []HostEntry{
			{Name: "campaign-run/warm", Runs: 10, NSPerRun: 1e6, AllocsPerRun: 100, BytesPerRun: 1e5},
			{Name: "campaign-run/cold", Runs: 10, NSPerRun: 12e6, AllocsPerRun: 1700, BytesPerRun: 2e8},
			{Name: "machine-acquire/warm", Runs: 40, NSPerRun: 5e4, AllocsPerRun: 0, BytesPerRun: 0},
			{Name: "machine-acquire/cold", Runs: 40, NSPerRun: 2e6, AllocsPerRun: 13, BytesPerRun: 1e8},
		},
		CampaignSpeedup:    12,
		CampaignAllocRatio: 17,
		RestoreSpeedup:     40,
		RestoreAllocRatio:  13,
	}
}

func TestCheckHostPassesOnMatchingReports(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %v", regs)
	}
	// Inside tolerance: 60% ratio drop against the default 75% slack.
	fresh.CampaignSpeedup = 12 * 0.4
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Fatalf("in-tolerance drift regressed: %v", regs)
	}
	// A faster-than-baseline run is never a regression.
	fresh = checkBaseline()
	fresh.RestoreSpeedup = 400
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Fatalf("improvement regressed: %v", regs)
	}
}

func TestCheckHostCatchesRatioRegression(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	fresh.RestoreSpeedup = 40 * 0.2 // below the default (1-0.75) floor
	regs := CheckHost(base, fresh, 0)
	if len(regs) != 1 || !strings.Contains(regs[0], "restore_speedup") {
		t.Fatalf("regressions = %v, want one restore_speedup line", regs)
	}
	// A tighter tolerance catches smaller drops.
	fresh = checkBaseline()
	fresh.CampaignSpeedup = 12 * 0.85
	if regs := CheckHost(base, fresh, 0.1); len(regs) != 1 ||
		!strings.Contains(regs[0], "campaign_speedup") {
		t.Fatalf("regressions = %v, want one campaign_speedup line", regs)
	}
}

func TestCheckHostCatchesWarmAllocGrowth(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	// The zero-alloc warm acquire starting to allocate is the canonical
	// lost-pooling signal; the +1 absolute slack must not mask it.
	fresh.Entries[2].AllocsPerRun = 5
	regs := CheckHost(base, fresh, 0)
	if len(regs) != 1 || !strings.Contains(regs[0], "machine-acquire/warm") {
		t.Fatalf("regressions = %v, want one machine-acquire/warm line", regs)
	}
	// Sub-slack noise on a zero baseline passes.
	fresh.Entries[2].AllocsPerRun = 0.5
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Fatalf("sub-slack alloc noise regressed: %v", regs)
	}
}

func TestCheckHostRejectsMismatchedInputs(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	base.Schema = "something-else/v9"
	if regs := CheckHost(base, fresh, 0); len(regs) != 1 ||
		!strings.Contains(regs[0], "schema") {
		t.Fatalf("regressions = %v, want one schema line", regs)
	}
	base = checkBaseline()
	fresh.Benchmark = "CNN1"
	if regs := CheckHost(base, fresh, 0); len(regs) != 1 ||
		!strings.Contains(regs[0], "not comparable") {
		t.Fatalf("regressions = %v, want one comparability line", regs)
	}
	// A warm row dropped from the fresh run is itself a finding.
	base, fresh = checkBaseline(), checkBaseline()
	fresh.Entries = fresh.Entries[:2]
	if regs := CheckHost(base, fresh, 0); len(regs) != 1 ||
		!strings.Contains(regs[0], "missing") {
		t.Fatalf("regressions = %v, want one missing-row line", regs)
	}
}

// TestCheckHostNamesADifferentKernelForm: a baseline measured on the
// other form of the fixed-point kernels gets a note naming both forms,
// and no regression.
func TestCheckHostNamesADifferentKernelForm(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	base.KernelForm, fresh.KernelForm = "go", "avx2"
	note := KernelFormNote(base, fresh)
	if !strings.Contains(note, `"go"`) || !strings.Contains(note, `"avx2"`) {
		t.Errorf("note = %q, want both forms named", note)
	}
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Errorf("a different kernel form regressed: %v", regs)
	}
	fresh.KernelForm = "go"
	if note := KernelFormNote(base, fresh); note != "" {
		t.Errorf("same kernel form: note = %q, want none", note)
	}
}

// TestCheckHostSaysAnUnrecordedKernelFormIsUnknown: a baseline without
// kernel_form, like a record written before the field, gets a note that
// its form is unknown, naming this host's, and no regression.
func TestCheckHostSaysAnUnrecordedKernelFormIsUnknown(t *testing.T) {
	base, fresh := checkBaseline(), checkBaseline()
	fresh.KernelForm = "avx2"
	note := KernelFormNote(base, fresh)
	if !strings.Contains(note, "unknown") || !strings.Contains(note, `"avx2"`) {
		t.Errorf("note = %q, want the form called unknown and this host's named", note)
	}
	if regs := CheckHost(base, fresh, 0); len(regs) != 0 {
		t.Errorf("an unrecorded kernel form regressed: %v", regs)
	}
}
