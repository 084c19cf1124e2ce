package bench

// Tests pinning the run path's output check (benchmark.checkOutput): the
// first run of a program verifies against the float64 reference and
// records its output; every later run byte-compares its declared regions
// with that record, allocating nothing, and a difference in any region
// fails the run by name.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cambricon/internal/codegen"
	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/reqtrace"
)

// recorded returns the named program's recorded output (nil before a run
// has passed Verify).
func recorded(s *Suite, name string) []byte {
	if p := record(s, name).out.Load(); p != nil {
		return *p
	}
	return nil
}

// record returns the named benchmark's record, nil for an unknown name.
func record(s *Suite, name string) *benchmark {
	b, _ := s.lookup(name)
	return b
}

// declaredBytes sums the sizes of a program's declared output regions.
func declaredBytes(p *codegen.Program) int {
	n := 0
	for _, r := range p.Results {
		n += fixed.Bytes(r.N)
	}
	return n
}

// runCheck runs one recorded RunOnce and returns its "output" attribute.
func runCheck(t *testing.T, s *Suite, name string) string {
	t.Helper()
	rec := reqtrace.NewRecorder("request", reqtrace.Traceparent{})
	if _, err := s.RunOnce(reqtrace.With(context.Background(), rec), name); err != nil {
		t.Fatal(err)
	}
	check, ok := rec.Finish().StrAttr("sim.run", "output")
	if !ok {
		t.Fatalf("%s: sim.run has no output attribute", name)
	}
	return check
}

// TestRunOnceWarmAllocationFree: once a program's output is recorded, a
// warm run of it — pool acquire, snapshot restore, run, compare, release
// — allocates nothing, for all ten programs.
func TestRunOnceWarmAllocationFree(t *testing.T) {
	s := NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range progs {
		if _, err := s.RunOnce(ctx, p.Name); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := s.RunOnce(ctx, p.Name); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm RunOnce allocates %v times, want 0", p.Name, allocs)
		}
	}
}

// TestRunOnceRejectsAFlippedRecord is TestVerifyRejectsACorruptedOutput
// (internal/codegen) on the serve path: for every program and every
// declared region, bit 14 of one element of the record flipped must fail
// the next run with an error naming that region, and the restored record
// must pass again. A region the comparison skipped would let the run
// pass.
func TestRunOnceRejectsAFlippedRecord(t *testing.T) {
	s := NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range progs {
		if check := runCheck(t, s, p.Name); check != outputVerify {
			t.Fatalf("%s: first run paid for %q, want %q", p.Name, check, outputVerify)
		}
		out := recorded(s, p.Name)
		if want := declaredBytes(p); len(out) == 0 || len(out) != want {
			t.Fatalf("%s: record is %d bytes, want %d", p.Name, len(out), want)
		}
		off := 0
		for _, r := range p.Results {
			// The middle element: neither edge of the region is special.
			at := off + fixed.Bytes(r.N/2) + 1 // high byte: bit 14 is its bit 6
			out[at] ^= 1 << 6
			_, err := s.RunOnce(ctx, p.Name)
			out[at] ^= 1 << 6
			want := p.Name + `: output "` + r.Name + `"[`
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: record flipped in region %q: run error = %v, want it to name the region", p.Name, r.Name, err)
			}
			if check := runCheck(t, s, p.Name); check != outputCompare {
				t.Errorf("%s: run after the restore paid for %q, want %q", p.Name, check, outputCompare)
			}
			off += fixed.Bytes(r.N)
		}
	}
}

// TestConcurrentFirstRunsRecordOnce: concurrent first runs of one program
// may each verify, but all succeed, exactly one record is kept, and
// every run after them compares.
func TestConcurrentFirstRunsRecordOnce(t *testing.T) {
	s := NewSuite(7)
	if _, err := s.Programs(); err != nil {
		t.Fatal(err)
	}
	const runs = 8
	checks := make([]string, runs)
	var wg sync.WaitGroup
	for i := range checks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := reqtrace.NewRecorder("request", reqtrace.Traceparent{})
			if _, err := s.RunOnce(reqtrace.With(context.Background(), rec), "BM"); err != nil {
				t.Error(err)
				return
			}
			checks[i], _ = rec.Finish().StrAttr("sim.run", "output")
		}(i)
	}
	wg.Wait()
	verified := 0
	for _, c := range checks {
		switch c {
		case outputVerify:
			verified++
		case outputCompare:
		default:
			t.Fatalf("run paid for %q", c)
		}
	}
	if verified == 0 {
		t.Fatal("no concurrent first run verified")
	}
	t.Logf("%d of %d concurrent first runs verified", verified, runs)
	n := 0
	for _, b := range s.byName {
		if b.out.Load() != nil {
			n++
		}
	}
	kept := record(s, "BM").out.Load()
	if n != 1 || kept == nil {
		t.Fatalf("%d records, BM's %v; want exactly BM's", n, kept)
	}
	for i := 0; i < 3; i++ {
		if check := runCheck(t, s, "BM"); check != outputCompare {
			t.Fatalf("run after the first ones paid for %q, want %q", check, outputCompare)
		}
	}
	if record(s, "BM").out.Load() != kept {
		t.Fatal("a later run replaced the record")
	}
}

// TestColdSuiteRecordsToo: a cold suite's runs take the same path —
// verify once, compare after.
func TestColdSuiteRecordsToo(t *testing.T) {
	s := coldSuite(7)
	for i, want := range []string{outputVerify, outputCompare, outputCompare} {
		if check := runCheck(t, s, "RBM"); check != want {
			t.Fatalf("cold run %d paid for %q, want %q", i, check, want)
		}
	}
}

// TestFailedCheckRecordsNothing: a run whose output fails Verify records
// nothing, so the next run verifies again.
func TestFailedCheckRecordsNothing(t *testing.T) {
	s := NewSuite(7)
	p, err := s.Program("MLP")
	if err != nil {
		t.Fatal(err)
	}
	saved := p.Results[0].Want
	p.Results[0].Want = make([]float64, len(saved)) // no output is all zeros
	_, err = s.RunOnce(context.Background(), "MLP")
	p.Results[0].Want = saved
	if err == nil {
		t.Fatal("a run against a wrong reference passed")
	}
	if recorded(s, "MLP") != nil {
		t.Fatal("a run that failed Verify recorded its output")
	}
	if check := runCheck(t, s, "MLP"); check != outputVerify {
		t.Fatalf("run after a failed one paid for %q, want %q", check, outputVerify)
	}
}

// TestFaultTargetOutputsCoverDeclaredRegions: a fault target's golden
// observation carries every declared output region, so a campaign
// classifies against all of a program's outputs.
func TestFaultTargetOutputsCoverDeclaredRegions(t *testing.T) {
	s := NewSuite(7)
	targets, err := s.FaultTargets()
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range targets {
		p, err := s.Program(tgt.Name())
		if err != nil {
			t.Fatal(err)
		}
		obs := tgt.Run(nil, 0)
		if obs.Err != nil {
			t.Fatal(obs.Err)
		}
		if want := declaredBytes(p); len(obs.Output) == 0 || len(obs.Output) != want {
			t.Errorf("%s: golden output is %d bytes, want %d (its declared regions)", tgt.Name(), len(obs.Output), want)
		}
	}
}

// TestBMCampaignReportsSDC: BM declares its outputs only for its custom
// check. Its campaigns must still see them: some faulted runs are silent
// data corruption, and every site classified masked passes Verify when
// re-run.
func TestBMCampaignReportsSDC(t *testing.T) {
	s := NewSuite(7)
	rep, err := campaignOf(s, fault.Campaign{Seed: 7, Sites: 100, Checkpoints: 8, Workers: 2}, "BM")
	if err != nil {
		t.Fatal(err)
	}
	br := rep.Benchmarks[0]
	if br.Tally.SDC == 0 {
		t.Fatalf("BM campaign reports no SDC: %+v", br.Tally)
	}
	b := record(s, "BM")
	for _, r := range br.Runs {
		if r.Outcome != fault.OutcomeMasked {
			continue
		}
		if err := rerunVerify(s, b, r.Fault); err != nil {
			t.Errorf("masked site %+v fails Verify: %v", r.Fault, err)
		}
	}
}

// TestCampaignVerifiesOncePerSuite: fault sites never call Verify, and
// the golden runs of every campaign on one suite call it once between
// them — the first records, the rest compare.
func TestCampaignVerifiesOncePerSuite(t *testing.T) {
	s := NewSuite(7)
	p, err := s.Program("SOM")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	p.Checks = append(p.Checks, func(codegen.Outputs) error {
		calls.Add(1)
		return nil
	})
	for _, ck := range []int{0, 8, 8} {
		if _, err := campaignOf(s, fault.Campaign{Seed: 7, Sites: 20, Checkpoints: ck, Workers: 2}, "SOM"); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("three campaigns called Verify %d times, want 1", got)
	}
}

// campaignOf runs a campaign over one of the suite's targets.
func campaignOf(s *Suite, c fault.Campaign, name string) (*fault.Report, error) {
	targets, err := s.FaultTargets()
	if err != nil {
		return nil, err
	}
	for _, tgt := range targets {
		if tgt.Name() == name {
			return c.Run(context.Background(), []fault.Target{tgt})
		}
	}
	return nil, fmt.Errorf("no target %q", name)
}

// rerunVerify re-runs one fault site on the observed path and checks the
// faulted outputs against the float64 reference.
func rerunVerify(s *Suite, b *benchmark, f fault.Fault) error {
	m, pooled, err := s.preparedMachine(context.Background(), b, 0)
	if err != nil {
		return err
	}
	defer s.releaseMachine(m, pooled)
	m.SetInjector(fault.New(f))
	if _, err := m.Run(); err != nil {
		return err
	}
	return b.prog.Verify(m)
}
