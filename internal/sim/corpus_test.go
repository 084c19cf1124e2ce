package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestPerPositionCNNTimingCorpus keeps one of the timing model's two
// long instruction streams. testdata/cnn_per_position.cam is the LeNet-5
// listing `camrepro -source CNN` printed (seed 7) while each convolution
// ran one MMV per output position, with five VMOVE patch gathers per MMV
// and per-position 2x2 pooling: 15,060 dynamic instructions whose loops
// never branch on data. testdata/cnn_per_position.stats.json is its
// Stats from that program's entry in camsim's benchmark_all golden
// record. Run on a Table II machine with main memory left zero, the
// listing must reproduce every count, stall causes included, because no
// count depends on the values computed.
func TestPerPositionCNNTimingCorpus(t *testing.T) {
	checkTimingCorpus(t, "cnn_per_position", 15060)
}

// TestScalarSOMTimingCorpus keeps the other long stream.
// testdata/som_scalar.cam is the SOM listing `camrepro -source SOM`
// printed (seed 7) while each training step walked the 36 neurons in
// two scalar loops: a BMU search of VSV, VDOT, SGT, SE and CB per
// neuron, and a neighborhood update of SDIV, SMUL and SEXP per neuron.
// testdata/som_scalar.stats.json is its Stats on a Table II machine with
// main memory left zero, recorded by the simulator that generated the
// listing. The BMU branch follows the data: with every prototype and
// input zero, each distance is 0, so only the first neuron of a step
// takes the branch's "new best" path. That is why these counts (8,803
// instructions) differ from the 8,859 of the golden record, which ran
// the listing on its seed's data.
func TestScalarSOMTimingCorpus(t *testing.T) {
	checkTimingCorpus(t, "som_scalar", 8803)
}

// checkTimingCorpus runs testdata/<name>.cam on a Table II machine with
// main memory left zero and requires exactly the Stats pinned in
// testdata/<name>.stats.json, which record instructions dynamic
// instructions.
func checkTimingCorpus(t *testing.T, name string, instructions int64) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name+".cam"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", name+".stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var want Stats
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if want.Instructions != instructions {
		t.Fatalf("pinned stats record %d instructions, want the listing's %d", want.Instructions, instructions)
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
		t.Errorf("%s stats diverged from testdata/%s.stats.json:\ngot:\n%s\nwant:\n%s", name, name, gotJSON, raw)
	}
}
