package trace

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestBreakdownSum(t *testing.T) {
	var b Breakdown
	if b.Sum() != 0 {
		t.Errorf("zero Breakdown sums to %d", b.Sum())
	}
	for i := range b {
		b[i] = int64(i + 1)
	}
	want := int64(NumCauses * (NumCauses + 1) / 2)
	if b.Sum() != want {
		t.Errorf("Sum = %d, want %d", b.Sum(), want)
	}
}

func TestBreakdownJSONRoundTrip(t *testing.T) {
	var b Breakdown
	for i := range b {
		b[i] = int64(i * 100)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	// The object must be keyed by cause names.
	for _, c := range Causes() {
		if !strings.Contains(string(data), `"`+c.String()+`"`) {
			t.Errorf("marshal missing cause %q: %s", c, data)
		}
	}
	var got Breakdown
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != b {
		t.Errorf("round trip = %v, want %v", got, b)
	}
}

func TestBreakdownJSONRejectsUnknownKey(t *testing.T) {
	var b Breakdown
	if err := json.Unmarshal([]byte(`{"compute":1,"bogus":2}`), &b); err == nil {
		t.Error("unknown stall cause accepted")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &b); err == nil {
		t.Error("non-object accepted")
	}
}

func TestBreakdownJSONNegative(t *testing.T) {
	b := Breakdown{0: -5}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var got Breakdown
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got[0] != -5 {
		t.Errorf("negative value round trip = %d", got[0])
	}
}

func TestCauseAndFUStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Causes() {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "cause(") {
			t.Errorf("cause %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate cause name %q", s)
		}
		seen[s] = true
	}
	if len(Causes()) != NumCauses {
		t.Errorf("Causes() returned %d entries", len(Causes()))
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Errorf("out-of-range cause = %q", got)
	}
	fus := map[string]bool{}
	for fu := FU(0); fu < NumFUs; fu++ {
		s := fu.String()
		if s == "" || strings.HasPrefix(s, "fu(") {
			t.Errorf("FU %d has no name", fu)
		}
		if fus[s] {
			t.Errorf("duplicate FU name %q", s)
		}
		fus[s] = true
	}
	if got := FU(200).String(); got != "fu(200)" {
		t.Errorf("out-of-range FU = %q", got)
	}
}

// recorder captures every tracer call for assertions.
type recorder struct {
	begins    int
	insts     []InstEvent
	conflicts int
	total     int64
}

func (r *recorder) BeginRun(meta RunMeta)     { r.begins++ }
func (r *recorder) Instruction(ev *InstEvent) { r.insts = append(r.insts, *ev) }
func (r *recorder) BankConflict(spad string, bank int, extraCycles, atCycle int64) {
	r.conflicts++
}
func (r *recorder) EndRun(totalCycles int64)                 { r.total = totalCycles }
func (r *recorder) Fault(kind string, pc int, atCycle int64) {}

func TestTee(t *testing.T) {
	if Tee() != nil {
		t.Error("Tee() of nothing should be nil")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
	one := &recorder{}
	if got := Tee(nil, one, nil); got != Tracer(one) {
		t.Error("Tee with one live sink should return it unchanged")
	}
	a, b := &recorder{}, &recorder{}
	tt := Tee(a, nil, b)
	tt.BeginRun(RunMeta{})
	ev := &InstEvent{Index: 3, Gap: 7}
	tt.Instruction(ev)
	tt.BankConflict("vector-spad", 1, 2, 10)
	tt.EndRun(99)
	for i, r := range []*recorder{a, b} {
		if r.begins != 1 || len(r.insts) != 1 || r.conflicts != 1 || r.total != 99 {
			t.Errorf("sink %d saw begins=%d insts=%d conflicts=%d total=%d",
				i, r.begins, len(r.insts), r.conflicts, r.total)
		}
		if !reflect.DeepEqual(r.insts[0], *ev) {
			t.Errorf("sink %d event = %+v", i, r.insts[0])
		}
	}
}
