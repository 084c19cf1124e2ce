package chaos

import (
	"errors"
	"testing"
	"time"

	"cambricon/internal/metrics"
)

func TestParseEmptySpecIsNil(t *testing.T) {
	for _, spec := range []string{"", "  ", "\t"} {
		c, err := Parse(spec)
		if c != nil || err != nil {
			t.Fatalf("Parse(%q) = %v, %v, want nil, nil", spec, c, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"restore-fail",      // no value
		"bogus=1",           // unknown key
		"restore-fail=1.5",  // probability out of range
		"restore-fail=-0.1", // negative probability
		"panic=x",           // not a number
		"run-delay=fast",    // not a duration
		"run-delay=-5ms",    // negative duration
		"run-delay=5ms:2",   // delay probability out of range
		"wal-tear=0",        // not 1-based
		"seed=notanumber",   // bad seed
		"run-delay=1s:zz",   // bad delay probability
		"acquire-delay=1s",  // deleted key: unknown
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

func TestNilChaosIsInert(t *testing.T) {
	var c *Chaos
	c.BeforeRun()
	c.SetMetrics(nil)
	if err := c.SnapshotRestore(); err != nil {
		t.Fatalf("nil SnapshotRestore = %v", err)
	}
	if c.WALTear() {
		t.Fatal("nil WALTear = true")
	}
	if c.Seed() != 0 {
		t.Fatalf("nil Seed = %d", c.Seed())
	}
}

func TestRestoreFailAlwaysWrapsSentinel(t *testing.T) {
	c, err := Parse("restore-fail=1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := c.SnapshotRestore()
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("restore #%d = %v, want ErrInjected", i, err)
		}
	}
}

func TestInjectedPanicFiresInsideCallerRecover(t *testing.T) {
	c, err := Parse("panic=1")
	if err != nil {
		t.Fatal(err)
	}
	recovered := func() (r any) {
		defer func() { r = recover() }()
		c.BeforeRun()
		return nil
	}()
	if recovered == nil {
		t.Fatal("panic=1 did not panic")
	}
}

func TestRollsAreSeededAndDeterministic(t *testing.T) {
	draw := func(spec string) []bool {
		c, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = c.SnapshotRestore() != nil
		}
		return out
	}
	a, b := draw("seed=7,restore-fail=0.5"), draw("seed=7,restore-fail=0.5")
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different injection sequences")
	}
	other := draw("seed=8,restore-fail=0.5")
	diff := false
	for i := range a {
		if a[i] != other[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical 64-roll sequences")
	}
	// And a 0.5 stream actually mixes outcomes.
	hits := 0
	for _, v := range a {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("restore-fail=0.5 hit %d/%d rolls; the stream is not probabilistic", hits, len(a))
	}
}

func TestWALTearFiresExactlyOnce(t *testing.T) {
	c, err := Parse("wal-tear=2")
	if err != nil {
		t.Fatal(err)
	}
	got := []bool{c.WALTear(), c.WALTear(), c.WALTear(), c.WALTear()}
	want := []bool{false, true, false, false}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("WALTear sequence %v, want %v", got, want)
		}
	}
}

func TestDelaysStallAndCount(t *testing.T) {
	c, err := Parse("run-delay=30ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c.SetMetrics(reg)
	start := time.Now()
	c.BeforeRun() // no panic key: delay only
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Fatalf("a 30ms delay elapsed in %v", el)
	}
	if v := reg.Counter(MetricInjections, "", metrics.L("kind", "run-delay")).Value(); v != 1 {
		t.Fatalf("run-delay injections = %d, want 1", v)
	}
}
