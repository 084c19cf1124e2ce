// Package chaos is the seeded fault layer of the *service* path
// (docs/ROBUSTNESS.md, "Serving-layer robustness"). Where internal/fault
// injects bit-flips into the simulated hardware, this package injects
// operational failures into the serving stack around it: snapshot
// restores that fail, simulations that stall or panic mid-run, and WAL
// appends that tear mid-record — the failure shapes a long-lived daemon
// must survive, produced on demand so tests and the `camserve -chaos`
// flag can prove it does.
//
// The contract mirrors trace.Tracer's and metrics.Registry's: chaos
// must be free when absent. Every hook is safe on a nil *Chaos and does
// nothing, so the instrumented paths stay allocation-free and produce
// bit-identical simulated statistics when no chaos is configured.
//
// A Chaos is built from a spec string — comma-separated key=value
// pairs, e.g. "seed=7,restore-fail=0.2,panic=0.05,run-delay=50ms:0.5":
//
//	seed=N          splitmix64 seed for the probability rolls (default 1)
//	restore-fail=P  fraction of snapshot restores that fail with ErrInjected
//	run-delay=D[:P] fraction P (default 1) of simulations delayed by D before running
//	panic=P         fraction of simulations that panic mid-run
//	wal-tear=N      the Nth WAL append (1-based) writes a torn record, once
//
// All probability rolls draw from one seeded splitmix64 stream, so a
// given (spec, request order) reproduces the same injections.
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cambricon/internal/metrics"
)

// ErrInjected is the sentinel wrapped by every chaos-injected error, so
// callers (and tests) can tell an injected failure from a real one.
var ErrInjected = errors.New("chaos: injected failure")

// MetricInjections counts performed injections by kind when a registry
// is attached via SetMetrics.
const MetricInjections = "cambricon_chaos_injections_total"

// delaySpec is one "duration with probability" knob.
type delaySpec struct {
	d time.Duration
	p float64
}

// Chaos holds the parsed injection plan and the seeded roll stream.
// The zero value injects nothing; a nil *Chaos is the documented
// "chaos off" state every hook tolerates.
type Chaos struct {
	seed uint64

	restoreFail float64
	runDelay    delaySpec
	panicP      float64
	walTearAt   int64

	walAppends atomic.Int64

	mu  sync.Mutex
	s   uint64 // splitmix64 state
	reg *metrics.Registry
}

// Parse builds a Chaos from a spec string. An empty spec returns (nil,
// nil): chaos off, every hook a no-op.
func Parse(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{seed: 1}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: malformed entry %q (want key=value)", kv)
		}
		var err error
		switch key {
		case "seed":
			c.seed, err = strconv.ParseUint(val, 10, 64)
		case "restore-fail":
			c.restoreFail, err = parseProb(val)
		case "run-delay":
			c.runDelay, err = parseDelay(val)
		case "panic":
			c.panicP, err = parseProb(val)
		case "wal-tear":
			c.walTearAt, err = strconv.ParseInt(val, 10, 64)
			if err == nil && c.walTearAt < 1 {
				err = fmt.Errorf("want a 1-based append index")
			}
		default:
			return nil, fmt.Errorf("chaos: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: bad %s value %q: %v", key, val, err)
		}
	}
	c.s = c.seed
	return c, nil
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability out of [0,1]")
	}
	return p, nil
}

// parseDelay parses "DUR" or "DUR:P".
func parseDelay(val string) (delaySpec, error) {
	durPart, probPart, hasProb := strings.Cut(val, ":")
	d, err := time.ParseDuration(durPart)
	if err != nil {
		return delaySpec{}, err
	}
	if d < 0 {
		return delaySpec{}, fmt.Errorf("negative duration")
	}
	spec := delaySpec{d: d, p: 1}
	if hasProb {
		if spec.p, err = parseProb(probPart); err != nil {
			return delaySpec{}, err
		}
	}
	return spec, nil
}

// SetMetrics attaches a registry so injections are counted by kind
// (MetricInjections). Safe on a nil receiver.
func (c *Chaos) SetMetrics(reg *metrics.Registry) {
	if c != nil {
		c.mu.Lock()
		c.reg = reg
		c.mu.Unlock()
	}
}

// Seed returns the roll-stream seed (for logging). Zero on nil.
func (c *Chaos) Seed() uint64 {
	if c == nil {
		return 0
	}
	return c.seed
}

// roll draws one splitmix64 value and reports whether it lands under p.
func (c *Chaos) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	c.mu.Lock()
	c.s += 0x9e3779b97f4a7c15
	z := c.s
	c.mu.Unlock()
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p
}

func (c *Chaos) count(kind string) {
	c.mu.Lock()
	reg := c.reg
	c.mu.Unlock()
	reg.Counter(MetricInjections, "chaos injections performed, by kind",
		metrics.L("kind", kind)).Inc()
}

// SnapshotRestore may fail a snapshot restore. A non-nil return wraps
// ErrInjected. Nil-safe.
func (c *Chaos) SnapshotRestore() error {
	if c == nil {
		return nil
	}
	if c.roll(c.restoreFail) {
		c.count("restore-fail")
		return fmt.Errorf("snapshot restore: %w", ErrInjected)
	}
	return nil
}

// BeforeRun may stall a simulation and/or panic in its place — the
// misbehaving-request shape panic isolation must contain. Callers run
// it inside their existing recover scope. Nil-safe.
func (c *Chaos) BeforeRun() {
	if c == nil {
		return
	}
	if c.runDelay.d > 0 && c.roll(c.runDelay.p) {
		c.count("run-delay")
		time.Sleep(c.runDelay.d)
	}
	if c.roll(c.panicP) {
		c.count("run-panic")
		panic("chaos: injected run panic")
	}
}

// WALTear reports whether this WAL append (counted per Chaos, 1-based)
// should be written torn — a partial record simulating a crash
// mid-write. Fires at most once, on the configured append. Nil-safe.
func (c *Chaos) WALTear() bool {
	if c == nil || c.walTearAt <= 0 {
		return false
	}
	if c.walAppends.Add(1) == c.walTearAt {
		c.count("wal-tear")
		return true
	}
	return false
}
