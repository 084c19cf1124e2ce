package main

// Pure helpers shared by every workload: percentiles, spreads and
// per-block medians, the seeded request schedule, span folding into
// per-layer self times, and metric-name mapping. They touch no clock, file or process, so
// stats_test.go pins them directly.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// minTail is the number of samples the reported high percentile must
// keep beyond it: a p90 over fewer than 100 samples is the extreme of a
// handful of requests, not a percentile.
const minTail = 10

// tailBeyond counts the samples strictly beyond the nearest-rank
// q-quantile of n samples.
func tailBeyond(n int, q float64) int {
	if n <= 0 {
		return 0
	}
	return n - rank(n, q) - 1
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// checkTail rejects reporting the q-quantile of n samples when fewer
// than minTail samples lie beyond it.
func checkTail(n int, q float64) error {
	if tailBeyond(n, q) < minTail {
		return fmt.Errorf("p%g over %d samples keeps %d beyond it, want at least %d",
			100*q, n, tailBeyond(n, q), minTail)
	}
	return nil
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(len(xs), q)]
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	d := sorted(xs)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method (Python's statistics.quantiles(xs, n=4) default),
// so the spreads printed here match the ones computed over a set of runs.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	d := sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// block is one equal-work slice of a timed phase: its operation count,
// wall time, the measured process's CPU time over it, each operation's
// latency in ms, and the host's CPU steal and busy shares over it.
type block struct {
	ops   int
	wall  time.Duration
	cpu   time.Duration
	lat   []float64
	steal float64 // share of host CPU time the hypervisor stole
	busy  float64 // share of host CPU time not idle (steal included)
}

// unstolen is the share of the CPU time the host's vCPUs wanted that
// the hypervisor let them run, from the steal and busy shares of an
// interval: 1 - steal/busy. It is a property of the host, not of the
// program — a vCPU is only stolen from while it wants to run, so a
// program that uses less CPU sees proportionally less steal.
func unstolen(steal, busy float64) float64 {
	if busy <= 0 {
		return 1
	}
	return min(max(1-steal/busy, 0.05), 1)
}

// blockMetrics summarizes a timed phase as the median across its blocks
// of each block's throughput, latency p50 and p90, and CPU per op, so a
// burst of host interference that slows a few blocks does not move the
// result. Every block must keep minTail latencies beyond its p90.
//
// Time the hypervisor steals lands in the mean and the tail of the
// latency distribution, so throughput and p90 are taken on unstolen
// time: ops over wall x unstolen, p90 x unstolen. The median request
// and the CPU time a process is charged are left as measured.
func blockMetrics(blocks []block) (metricSet, error) {
	var ops, p50, p90, cpu []float64
	for _, b := range blocks {
		if err := checkTail(len(b.lat), 0.9); err != nil {
			return nil, err
		}
		u := unstolen(b.steal, b.busy)
		ops = append(ops, float64(b.ops)/(b.wall.Seconds()*u))
		p50 = append(p50, percentile(b.lat, 0.5))
		p90 = append(p90, percentile(b.lat, 0.9)*u)
		cpu = append(cpu, float64(b.cpu)/1e6/float64(b.ops))
	}
	m := metricSet{}
	m.set("ops_per_s", median(ops), "op/s")
	m.set("latency_p50_ms", median(p50), "ms")
	m.set("latency_p90_ms", median(p90), "ms")
	m.set("cpu_ms_per_op", median(cpu), "ms")
	return m, nil
}

// splitmix64 is the seed mixer behind every derived seed and shuffle.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed mixes a run seed with a purpose tag into an independent
// stream seed.
func deriveSeed(seed, tag uint64) uint64 {
	return splitmix64(seed ^ splitmix64(tag))
}

// mixEntry is one program of a workload mix and its share of the run.
type mixEntry struct {
	Name   string
	Weight int
}

// schedule returns one run's request order: rounds copies of the mix
// (each program Weight times per round), shuffled by seed. The multiset
// depends only on the mix and rounds; the seed only orders it.
func schedule(mix []mixEntry, rounds int, seed uint64) []string {
	var all []string
	for r := 0; r < rounds; r++ {
		for _, e := range mix {
			for w := 0; w < e.Weight; w++ {
				all = append(all, e.Name)
			}
		}
	}
	out := make([]string, len(all))
	for i, j := range permutation(len(all), seed) {
		out[i] = all[j]
	}
	return out
}

// permutation returns 0..n-1 shuffled by seed (Fisher-Yates).
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// span is one timed interval of a request or campaign trace, with times
// in nanoseconds from a common origin. Parent indexes the enclosing
// span; -1 marks a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children clipped to the parent; overlapping
// children counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// Serve-side layer names. A request's client-observed latency is the
// sum of these: the HTTP remainder outside the daemon's root span, the
// root span's own self time, and the self time of every child span.
const (
	layerHTTP      = "camserve.http_ms"
	layerHandler   = "camserve.handler_ms"
	layerQueue     = "camserve.queue_wait_ms"
	layerAcquire   = "bench.pool_acquire_ms"
	layerRestore   = "bench.restore_ms"
	layerSim       = "sim.run_ms"
	layerEncode    = "camserve.encode_ms"
	layerWAL       = "ledger.append_ms"
	layerOtherSpan = "camserve.other_ms"
)

// serveLayers is the fold order; spanLayer maps daemon span names onto
// it. Spans outside the map (cold-path decode.lookup, snapshot.prepare,
// machine.build) fold into layerOtherSpan, so the sum stays exact.
var (
	serveLayers = []string{layerHTTP, layerHandler, layerQueue, layerAcquire,
		layerRestore, layerSim, layerEncode, layerWAL, layerOtherSpan}
	spanLayer = map[string]string{
		"queue.wait":       layerQueue,
		"pool.acquire":     layerAcquire,
		"snapshot.restore": layerRestore,
		"sim.run":          layerSim,
		"encode.json":      layerEncode,
		"wal.append":       layerWAL,
	}
)

// foldRequest splits one request's client-observed latency (ns) across
// the serve layers using the daemon's span bundle (spans[0] is the root
// "request" span). The layer times sum to client exactly; an error
// reports a bundle whose root outlasts the client's own measurement,
// which would make the HTTP remainder negative.
func foldRequest(spans []span, client int64) (map[string]int64, error) {
	if len(spans) == 0 || spans[0].Parent != -1 {
		return nil, fmt.Errorf("bundle has no root span")
	}
	root := spans[0].End - spans[0].Start
	if root > client {
		return nil, fmt.Errorf("root span %dns outlasts the client's %dns", root, client)
	}
	self := selfTimes(spans)
	out := make(map[string]int64, len(serveLayers))
	out[layerHTTP] = client - root
	out[layerHandler] = self[0]
	for i := 1; i < len(spans); i++ {
		l, ok := spanLayer[spans[i].Name]
		if !ok {
			l = layerOtherSpan
		}
		out[l] += self[i]
	}
	return out, nil
}

// metricName joins parts with '.' and maps every character outside
// letters, digits, '_', '.' and '-' to '_', so program names such as
// "Sparse Autoencoder" become valid metric-name segments.
func metricName(parts ...string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, strings.Join(parts, "."))
}

// validMetricName reports whether name is 1-64 letters, digits, '_',
// '.' or '-', starting with a letter or digit.
func validMetricName(name string) bool {
	if len(name) == 0 || len(name) > 64 || metricName(name) != name {
		return false
	}
	c := name[0]
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
