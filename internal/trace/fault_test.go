package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cambricon/internal/trace"
)

// TestProfileFaultAccumulation checks the profiler's fault events:
// repeated kinds accumulate and the report sorts rows by kind for
// deterministic output.
func TestProfileFaultAccumulation(t *testing.T) {
	p := trace.NewProfile()
	p.BeginRun(trace.RunMeta{})
	p.Fault("spad-bit", 3, 10)
	p.Fault("gpr-bit", 4, 20)
	p.Fault("spad-bit", 5, 30)
	p.EndRun(100)
	r := p.Report(5)
	if len(r.Faults) != 2 {
		t.Fatalf("report has %d fault rows, want 2", len(r.Faults))
	}
	if r.Faults[0].Kind != "gpr-bit" || r.Faults[0].Count != 1 {
		t.Errorf("row 0 = %+v, want gpr-bit x1", r.Faults[0])
	}
	if r.Faults[1].Kind != "spad-bit" || r.Faults[1].Count != 2 {
		t.Errorf("row 1 = %+v, want spad-bit x2", r.Faults[1])
	}
	if !strings.Contains(r.Render(), "injected faults") {
		t.Error("rendered report does not mention injected faults")
	}
}

// TestProfileNoFaultsOmitted pins the fault-free report shape: no
// faults means no Faults field in the JSON at all, so existing report
// consumers see byte-identical output.
func TestProfileNoFaultsOmitted(t *testing.T) {
	p := trace.NewProfile()
	p.BeginRun(trace.RunMeta{})
	p.EndRun(10)
	raw, err := json.Marshal(p.Report(5))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("faults")) {
		t.Errorf("fault-free report mentions faults: %s", raw)
	}
	if strings.Contains(p.Report(5).Render(), "injected faults") {
		t.Error("fault-free render mentions injected faults")
	}
}

// TestChromeFaultTrack checks the Chrome sink's lazily-declared fault
// track: fault-free traces carry no trace of it, faulted traces declare
// the track metadata exactly once before the instant events.
func TestChromeFaultTrack(t *testing.T) {
	var clean bytes.Buffer
	c := trace.NewChrome(&clean)
	c.BeginRun(trace.RunMeta{})
	c.EndRun(1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean.Bytes(), []byte("injected faults")) {
		t.Error("fault-free trace declares the fault track")
	}

	var dirty bytes.Buffer
	c = trace.NewChrome(&dirty)
	c.BeginRun(trace.RunMeta{})
	c.Fault("dma-bit", 7, 42)
	c.Fault("dma-bit", 7, 43)
	c.EndRun(50)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(dirty.Bytes(), []byte("injected faults")); got != 1 {
		t.Errorf("fault track declared %d times, want 1", got)
	}
	var doc chromeDoc
	if err := json.Unmarshal(dirty.Bytes(), &doc); err != nil {
		t.Fatalf("faulted trace is not valid JSON: %v", err)
	}
	events := 0
	for _, ev := range doc.TraceEvents {
		if name, _ := ev["name"].(string); name == "fault: dma-bit" {
			events++
		}
	}
	if events != 2 {
		t.Errorf("trace carries %d fault events, want 2", events)
	}
}

// faultSink records forwarded fault events.
type faultSink struct {
	nullSink
	kinds []string
}

func (s *faultSink) Fault(kind string, pc int, atCycle int64) { s.kinds = append(s.kinds, kind) }

type nullSink struct{}

func (nullSink) BeginRun(trace.RunMeta)                 {}
func (nullSink) Instruction(*trace.InstEvent)           {}
func (nullSink) BankConflict(string, int, int64, int64) {}
func (nullSink) EndRun(int64)                           {}
func (nullSink) Fault(string, int, int64)               {}

// TestTeeForwardsFaults checks that a tee forwards every fault event
// to every member, in order.
func TestTeeForwardsFaults(t *testing.T) {
	a, b := &faultSink{}, &faultSink{}
	tr := trace.Tee(a, nullSink{}, b)
	tr.Fault("stuck-lane", 1, 2)
	tr.Fault("gpr-bit", 3, 4)
	for i, fs := range []*faultSink{a, b} {
		if len(fs.kinds) != 2 || fs.kinds[0] != "stuck-lane" || fs.kinds[1] != "gpr-bit" {
			t.Errorf("member %d: forwarded kinds = %v", i, fs.kinds)
		}
	}
}
