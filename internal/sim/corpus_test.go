package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPerPositionCNNTimingCorpus keeps the timing model's one long
// instruction stream. testdata/cnn_per_position.cam is the LeNet-5
// listing `camrepro -source CNN` printed (seed 7) while each convolution
// ran one MMV per output position, with five VMOVE patch gathers per MMV
// and per-position 2x2 pooling: 15,060 dynamic instructions whose loops
// never branch on data. testdata/cnn_per_position.stats.json is its
// Stats from that program's entry in camsim's benchmark_all golden
// record. Run on a Table II machine with main memory left zero, the
// listing must reproduce every count, stall causes included, because no
// count depends on the values computed.
func TestPerPositionCNNTimingCorpus(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "cnn_per_position.cam"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "cnn_per_position.stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var want Stats
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if want.Instructions != 15060 {
		t.Fatalf("pinned stats record %d instructions, want the per-position listing's 15060", want.Instructions)
	}

	m := mustNew(t, DefaultConfig())
	m.LoadProgram(mustAssemble(t, string(src)).Instructions)
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("per-position CNN stats diverged from testdata/cnn_per_position.stats.json:\ngot:\n%s\nwant:\n%s", gotJSON, raw)
	}
}
