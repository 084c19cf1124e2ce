package bench

// The committed fault-outcome record: one campaign over all ten Table III
// programs at a fixed seed, pinned target by target and as the SHA-256 of
// the whole report, for both the replayed and the fast-forwarded campaign.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cambricon/internal/fault"
)

var updateCampaignGolden = flag.Bool("update", false,
	"rewrite testdata/campaign_seed7.golden.json (only for a declared model change)")

// campaignGolden is the committed record: each target's golden run and
// outcome tally, the campaign's total, and the digest of the full
// cambricon-fault/v1 report bytes.
type campaignGolden struct {
	Seed         uint64                 `json:"seed"`
	Sites        int                    `json:"sites_per_benchmark"`
	Workers      int                    `json:"workers"`
	ReportSHA256 string                 `json:"report_sha256"`
	Targets      []campaignGoldenTarget `json:"targets"`
	Total        fault.Tally            `json:"total"`
}

type campaignGoldenTarget struct {
	Name               string      `json:"name"`
	GoldenCycles       int64       `json:"golden_cycles"`
	GoldenInstructions int64       `json:"golden_instructions"`
	Tally              fault.Tally `json:"tally"`
}

// campaignGoldenRecord runs the seed-7 campaign (200 sites per target,
// all five models, 2 workers) with the given checkpoint count and
// returns its record, encoded as committed.
func campaignGoldenRecord(t *testing.T, checkpoints int) []byte {
	t.Helper()
	s := NewSuite(7)
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	c := fault.Campaign{Seed: 7, Sites: 200, Workers: 2, TargetWorkers: 2, Checkpoints: checkpoints}
	rep, err := c.Run(context.Background(), targets)
	if err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := rep.Write(&report); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(report.Bytes())
	g := campaignGolden{
		Seed:         c.Seed,
		Sites:        c.Sites,
		Workers:      c.Workers,
		ReportSHA256: hex.EncodeToString(sum[:]),
		Total:        rep.Total,
	}
	for _, b := range rep.Benchmarks {
		g.Targets = append(g.Targets, campaignGoldenTarget{
			Name:               b.Name,
			GoldenCycles:       b.GoldenCycles,
			GoldenInstructions: b.GoldenInstructions,
			Tally:              b.Tally,
		})
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestCampaignSeed7Golden pins fault outcomes at seed 7 against
// testdata/campaign_seed7.golden.json: the replayed campaign and the one
// fast-forwarded from 8 checkpoints must both reproduce it byte for
// byte. Regenerate with
// `go test ./internal/bench -run TestCampaignSeed7Golden -update` only
// for a declared model change.
func TestCampaignSeed7Golden(t *testing.T) {
	golden := filepath.Join("testdata", "campaign_seed7.golden.json")
	for _, checkpoints := range []int{0, 8} {
		t.Run(fmt.Sprintf("checkpoints=%d", checkpoints), func(t *testing.T) {
			got := campaignGoldenRecord(t, checkpoints)
			if *updateCampaignGolden && checkpoints == 0 {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed-7 campaign record diverged from %s:\n%s\nrerun with -update only for a declared model change",
					golden, got)
			}
		})
	}
}
