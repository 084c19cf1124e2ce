package main

import (
	"maps"
	"testing"
)

// TestCampaignChecksCountFailedOps injects a wrong golden expectation
// and a tampered report: each must surface as failed ops.
func TestCampaignChecksCountFailedOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign over all ten targets")
	}
	golden, err := goldenCycles()
	if err != nil {
		t.Fatal(err)
	}
	cs, failed, err := newCampaignSetup(golden)
	if err != nil || failed != 0 {
		t.Fatalf("set-up: %d failed, %v", failed, err)
	}
	const seed, sites = 3, 20
	rep := newReport()
	res, err := cs.sweep([]uint64{seed}, sites, golden, false, rep)
	if err != nil {
		t.Fatal(err)
	}
	if want := sites * len(cs.targets); rep.attempted != want || rep.failed != 0 {
		t.Fatalf("clean sweep: attempted %d failed %d, want %d and 0", rep.attempted, rep.failed, want)
	}
	if err := cs.replay(seed, sites, res.first, rep); err != nil || rep.failed != 0 {
		t.Fatalf("replay of an untampered report: %d failed, %v", rep.failed, err)
	}

	res.first.Benchmarks[0].Runs[0].Cycles++
	if err := cs.replay(seed, sites, res.first, rep); err != nil {
		t.Fatal(err)
	}
	if want := sites * len(cs.targets); rep.failed != want {
		t.Errorf("tampered report: %d failed, want %d", rep.failed, want)
	}

	wrong := maps.Clone(golden)
	wrong["MLP"]++
	rep = newReport()
	if _, err := cs.sweep([]uint64{seed}, sites, wrong, false, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != sites {
		t.Errorf("wrong MLP golden cycles: %d failed, want %d", rep.failed, sites)
	}
}
