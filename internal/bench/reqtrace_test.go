package bench

// Tests pinning the request-tracing contract (docs/OBSERVABILITY.md,
// "Request tracing & the flight recorder"): with no recorder on the
// context the warm request path allocates nothing and simulated
// statistics are bit-identical to a recorded run; with a recorder
// attached the span tree covers the documented phases.

import (
	"context"
	"reflect"
	"testing"

	"cambricon/internal/reqtrace"
	"cambricon/internal/trace"
)

// TestRunOnceBitIdenticalWithRecorder: attaching a request recorder must
// not perturb the simulation — same Stats, bit for bit, recorded or not.
func TestRunOnceBitIdenticalWithRecorder(t *testing.T) {
	s := NewSuite(7)
	plain, err := s.RunOnce(context.Background(), "MLP")
	if err != nil {
		t.Fatal(err)
	}
	rec := reqtrace.NewRecorder("request", reqtrace.Traceparent{})
	ctx := reqtrace.With(context.Background(), rec)
	traced, err := s.RunOnce(ctx, "MLP")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("stats diverge with a recorder attached:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestRunOnceSpanTimeline: a recorded warm run produces the documented
// span tree — pool.acquire, snapshot.restore and sim.run under the
// request root — with the sim.run span carrying the cycle counts and
// the full CPI-stack stall attribution, summing (with compute) to
// exactly the cycle total like Stats.CheckConsistency guarantees.
func TestRunOnceSpanTimeline(t *testing.T) {
	s := NewSuite(7)
	// First run pays snapshot preparation; the second is the steady-state
	// warm request whose timeline we assert.
	if _, err := s.RunOnce(context.Background(), "MLP"); err != nil {
		t.Fatal(err)
	}
	rec := reqtrace.NewRecorder("request", reqtrace.Traceparent{})
	ctx := reqtrace.With(context.Background(), rec)
	st, err := s.RunOnce(ctx, "MLP")
	if err != nil {
		t.Fatal(err)
	}
	b := rec.Finish()
	for _, want := range []string{"pool.acquire", "snapshot.restore", "sim.run"} {
		found := false
		for i := range b.Spans {
			if b.Spans[i].Name == want {
				found = true
				if b.Spans[i].Parent != 0 {
					t.Fatalf("span %s parent = %d, want 0 (root)", want, b.Spans[i].Parent)
				}
				if b.Spans[i].End < b.Spans[i].Start {
					t.Fatalf("span %s ends before it starts: %+v", want, b.Spans[i])
				}
			}
		}
		if !found {
			t.Fatalf("span %q missing from warm-run timeline: %+v", want, b.Spans)
		}
	}
	if cycles, ok := b.IntAttr("sim.run", "cycles"); !ok || cycles != st.Cycles {
		t.Fatalf("sim.run cycles attr = %d, %v; want %d", cycles, ok, st.Cycles)
	}
	if bytes, ok := b.IntAttr("snapshot.restore", "bytes"); !ok || bytes <= 0 {
		t.Fatalf("snapshot.restore bytes attr = %d, %v; want > 0", bytes, ok)
	}
	var attributed int64
	for _, c := range trace.Causes() {
		v, ok := b.IntAttr("sim.run", "stall."+c.String())
		if !ok {
			t.Fatalf("sim.run missing stall attr for cause %v", c)
		}
		attributed += v
	}
	if attributed != st.Cycles {
		t.Fatalf("span stall attrs sum to %d, want exactly Cycles=%d", attributed, st.Cycles)
	}
}

// TestWarmRequestPathNoRecorderAllocationFree pins the acceptance
// criterion: the instrumented warm request path — RunOnce, with its
// pool.acquire, snapshot.restore and sim.run span hooks, the run and
// the output comparison — performs zero heap allocations when the
// context carries no recorder, exactly like the tracer/injector/metrics
// nil contracts. (TestWarmPooledRequestPathAllocationFree below pins the
// machine-level loop under it.)
func TestWarmRequestPathNoRecorderAllocationFree(t *testing.T) {
	s := NewSuite(7)
	ctx := context.Background()
	// The first run prepares the snapshot, pools a machine and records
	// the output later runs compare against.
	if _, err := s.RunOnce(ctx, dispatchBenchmark); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.RunOnce(ctx, dispatchBenchmark); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm request path allocates %v times per run without a recorder, want 0", allocs)
	}
}

// TestWarmPooledRequestPathAllocationFree pins the full serving loop —
// pool acquire, snapshot restore, decoded run, pool release — at zero
// heap allocations per request. The explicit bounded free list makes
// this testable: the machine released at the end of one iteration is
// deterministically the machine acquired at the start of the next
// (sync.Pool, which the free list replaced, shed entries at random and
// could not be pinned this way). Bit-identical stats across iterations
// ride along for free.
func TestWarmPooledRequestPathAllocationFree(t *testing.T) {
	s := NewSuite(7)
	b, err := s.lookup(dispatchBenchmark)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Prime the caches and the pool outside the measured loop: snapshot,
	// decoded program, and one pooled machine.
	first, pooled, err := s.preparedMachine(ctx, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	s.releaseMachine(first, pooled)

	allocs := testing.AllocsPerRun(10, func() {
		m, pooled, err := s.preparedMachine(ctx, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m != first {
			t.Fatal("the pool handed out another machine instead of reusing the released one")
		}
		st, err := m.Run()
		s.releaseMachine(m, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Fatalf("pooled rerun stats diverge:\n got  %+v\n want %+v", st, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("pooled request path allocates %v times per run, want 0", allocs)
	}
}
