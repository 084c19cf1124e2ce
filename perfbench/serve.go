package main

// The serve workloads: a closed loop of POST /run requests against a
// real camserve process over loopback. Every response is checked
// against the statistics this process computes in-process for the same
// program and seed; a traced run additionally pulls each request's span
// bundle from the daemon's flight recorder (GET /runs/{id}) and folds it
// into per-layer self times.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cambricon/internal/bench"
	"cambricon/internal/ledger"
	"cambricon/internal/reqtrace"
	"cambricon/internal/trace"
)

// serveBlocks is the number of equal-work blocks a timed phase is split
// into; each end-to-end metric is the median across them.
const serveBlocks = 15

// serveSeed is camserve's benchmark-generation seed, passed explicitly
// so the daemon and the in-process oracle simulate the same programs.
const serveSeed = 7

// serveWorkload is one closed-loop traffic mix.
type serveWorkload struct {
	mix []mixEntry
	// conns is the closed loop's connection count: each connection sends
	// its next request only after the previous response arrived.
	conns int
	// rate sizes the fixed multiset: rounds of the mix per run are
	// rate x seconds / (requests per round), so a run's work depends on
	// --seconds, never on how fast the host happens to be.
	rate float64
	// warmup is the untimed request count (in rounds of the mix) sent
	// before timing starts, so the per-request cost has settled.
	warmup int
	// coldStarts is how many daemons a run starts to time set-up; the
	// last one serves the timed requests.
	coldStarts int
}

// expectation is the in-process oracle for one program's POST /run.
type expectation struct {
	cycles, instructions int64
	digest               string
}

// expectedRuns simulates each mix program in-process and returns what
// every camserve response for it must carry, plus the time
// Suite.Programs took (the daemon's own readiness step).
func expectedRuns(mix []mixEntry) (map[string]expectation, time.Duration, error) {
	s := bench.NewSuite(serveSeed)
	t0 := time.Now()
	if _, err := s.Programs(); err != nil {
		return nil, 0, err
	}
	codegen := time.Since(t0)
	out := map[string]expectation{}
	for _, e := range mix {
		st, err := s.Stats(e.Name)
		if err != nil {
			return nil, 0, err
		}
		stalls := make([]int64, 0, len(trace.Causes()))
		for _, c := range trace.Causes() {
			stalls = append(stalls, st.Stalls[c])
		}
		out[e.Name] = expectation{st.Cycles, st.Instructions,
			ledger.StatsDigest(st.Cycles, st.Instructions, stalls)}
	}
	return out, codegen, nil
}

// daemon is one camserve process and the keep-alive client bound to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	bodies map[string][]byte
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs camserve with a fresh WAL directory under dir and
// its log there too. The returned time is the exec instant.
func startDaemon(bin, dir string, conns int, mix []mixEntry) (*daemon, time.Time, error) {
	port, err := freePort()
	if err != nil {
		return nil, time.Time{}, err
	}
	wal := filepath.Join(dir, "wal")
	if err := os.MkdirAll(wal, 0o755); err != nil {
		return nil, time.Time{}, err
	}
	logf, err := os.Create(filepath.Join(dir, "camserve.log"))
	if err != nil {
		return nil, time.Time{}, err
	}
	cmd := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-wal", wal, "-seed", strconv.Itoa(serveSeed))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns + 1,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
		bodies: map[string][]byte{},
	}
	for _, e := range mix {
		d.bodies[e.Name], _ = json.Marshal(map[string]string{"benchmark": e.Name})
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, time.Time{}, err
	}
	go func() {
		cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, start, nil
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("camserve exited before becoming ready")
		default:
		}
		if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("camserve not ready after %v", limit)
}

// stop sends SIGTERM (a graceful drain) and waits for the process to
// end, killing it if the drain hangs.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// runRow is the part of a POST /run response the checks read.
type runRow struct {
	ID           int64  `json:"id"`
	Status       string `json:"status"`
	Cycles       int64  `json:"cycles"`
	Instructions int64  `json:"instructions"`
	StatsDigest  string `json:"stats_digest"`
	TraceID      string `json:"trace_id"`
}

// post sends one POST /run and returns the parsed row, the HTTP status
// and the client-observed latency (request write to last body byte).
func (d *daemon) post(name, traceparent string) (runRow, int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+"/run", bytes.NewReader(d.bodies[name]))
	if err != nil {
		return runRow{}, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return runRow{}, 0, time.Since(t0), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return runRow{}, resp.StatusCode, lat, err
	}
	var row runRow
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &row)
	}
	return row, resp.StatusCode, lat, err
}

// bundle is the part of a GET /runs/{id} debug bundle the fold reads.
type bundle struct {
	RestoreBytes int64 `json:"restore_bytes"`
	Trace        struct {
		TraceID string `json:"trace_id"`
		Spans   []span `json:"spans"`
	} `json:"trace"`
}

// fetchBundle reads one run's span bundle from the flight recorder.
func (d *daemon) fetchBundle(id int64) (*bundle, error) {
	resp, err := d.client.Get(fmt.Sprintf("%s/runs/%d", d.base, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /runs/%d: %s", id, resp.Status)
	}
	var b bundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		return nil, err
	}
	return &b, nil
}

// scrape reads GET /metrics and sums the samples of each named family
// across its label sets.
func (d *daemon) scrape(names ...string) (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			// Label values never hold spaces in these families, but the
			// value is always the last field either way.
			name = line[:i]
			rest = line[strings.LastIndexByte(line, ' ')+1:]
		}
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %v", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// sample is one timed request.
type sample struct {
	id         int64 // the daemon's run id
	bench      string
	start, end time.Duration // from the phase origin
	ok         bool
	cycles     int64
	restore    int64
	spans      []span
	traceID    string
}

func (s *sample) latency() time.Duration { return s.end - s.start }

// mark is the clock, the daemon's CPU time and the host CPU counters at
// a block boundary.
type mark struct {
	at, cpu time.Duration
	host    hostCPU
}

// boundary reads a block boundary; CPU reads 0 without a process.
func (d *daemon) boundary(origin time.Time) mark {
	var cpu time.Duration
	if d.cmd != nil {
		cpu, _ = procCPU(d.cmd.Process.Pid)
	}
	return mark{time.Since(origin), cpu, readHostCPU()}
}

// phase drives order through the closed loop on conns connections and
// checks every response. It splits the order into blocks of equal
// request counts and marks each block's start as its first request is
// claimed (plus the phase end), so per-block rates need no extra
// synchronisation. traced phases mint a traceparent per request and
// fetch each run's bundle before sending the next request.
func (d *daemon) phase(order []string, conns int, want map[string]expectation, traced bool, blocks int) ([]sample, []block) {
	samples := make([]sample, len(order))
	size := (len(order) + blocks - 1) / blocks
	marks := make([]mark, (len(order)+size-1)/size+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	origin := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				if i%size == 0 {
					marks[i/size] = d.boundary(origin)
				}
				samples[i] = d.one(order[i], want[order[i]], traced, origin)
			}
		}()
	}
	wg.Wait()
	marks[len(marks)-1] = d.boundary(origin)
	out := make([]block, len(marks)-1)
	for k := range out {
		part := samples[k*size : min((k+1)*size, len(samples))]
		b := block{ops: len(part), wall: marks[k+1].at - marks[k].at, cpu: marks[k+1].cpu - marks[k].cpu,
			steal: stealShare(marks[k].host, marks[k+1].host), busy: busyShare(marks[k].host, marks[k+1].host)}
		for i := range part {
			b.lat = append(b.lat, float64(part[i].latency())/1e6)
		}
		out[k] = b
	}
	return samples, out
}

// one sends, times and checks a single request.
func (d *daemon) one(name string, want expectation, traced bool, origin time.Time) sample {
	s := sample{bench: name}
	var tp reqtrace.Traceparent
	var header string
	if traced {
		tp = reqtrace.NewTraceparent()
		header = tp.String()
	}
	s.start = time.Since(origin)
	row, code, lat, err := d.post(name, header)
	s.end = s.start + lat
	s.ok = err == nil && code == http.StatusOK && row.Status == ledger.StatusOK &&
		row.Cycles == want.cycles && row.Instructions == want.instructions &&
		row.StatsDigest == want.digest
	s.id, s.cycles = row.ID, row.Cycles
	if !traced || !s.ok {
		return s
	}
	s.traceID = tp.Trace.String()
	b, err := d.fetchBundle(row.ID)
	if err != nil || b.Trace.TraceID != s.traceID || row.TraceID != s.traceID {
		s.ok = false
		return s
	}
	s.spans, s.restore = b.Trace.Spans, b.RestoreBytes
	return s
}

// Serve-side families scraped around the untraced phase of a traced run.
const (
	famGCCycles   = "cambricon_go_gc_cycles_total"
	famGCPauseNS  = "cambricon_go_gc_pause_nanoseconds_total"
	famPoolHits   = bench.MetricPoolHits
	famPoolMisses = bench.MetricPoolMisses
)

// runServe executes one serve workload run.
func runServe(w serveWorkload, o *options) (*report, error) {
	want, codegen, err := expectedRuns(w.mix)
	if err != nil {
		return nil, fmt.Errorf("in-process oracle: %w", err)
	}
	rep := newReport()
	perRound := 0
	for _, e := range w.mix {
		perRound += e.Weight
	}
	rounds := max(1, int(w.rate*float64(o.seconds)/float64(perRound)+0.5))

	// Set-up: cold starts from exec through readiness to one first run
	// of each mix program (each pays its snapshot.prepare). The median
	// over unstolen time is reported; the last daemon stays up for the
	// timed work.
	var setups, rawSetups, readies, prepares []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < w.coldStarts; i++ {
		dir := filepath.Join(o.runDir, fmt.Sprintf("daemon%d", i))
		var start time.Time
		host0 := readHostCPU()
		d, start, err = startDaemon(o.camserve, dir, w.conns, w.mix)
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(60 * time.Second); err != nil {
			return nil, fmt.Errorf("%w (log: %s)", err, filepath.Join(dir, "camserve.log"))
		}
		readies = append(readies, time.Since(start).Seconds())
		first := make([]sample, len(w.mix))
		for j, e := range w.mix {
			first[j] = d.one(e.Name, want[e.Name], false, start)
		}
		rep.count(first)
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*unstolenShare(host0, readHostCPU()))
		if o.trace {
			total := 0.0
			for _, f := range first {
				b, err := d.fetchBundle(f.id)
				if err != nil {
					return nil, err
				}
				for _, sp := range b.Trace.Spans {
					if sp.Name == "snapshot.prepare" {
						total += float64(sp.End-sp.Start) / 1e6
					}
				}
			}
			prepares = append(prepares, total)
		}
		if i < w.coldStarts-1 {
			d.stop()
			d = nil
		}
	}
	rep.diag["setup_s_raw_samples"] = rawSetups

	// Warm-up, then the timed phase(s). The seed orders requests only.
	warm := schedule(w.mix, w.warmup, deriveSeed(o.seed, 1))
	warmed, _ := d.phase(warm, w.conns, want, false, 1)
	rep.count(warmed)
	order := schedule(w.mix, rounds, deriveSeed(o.seed, 2))

	before, err := d.scrape(famGCCycles, famGCPauseNS, famPoolHits, famPoolMisses)
	if err != nil {
		return nil, err
	}
	m, samples, err := d.measured(order, w.conns, want, false, rep)
	if err != nil {
		return nil, err
	}
	after, err := d.scrape(famGCCycles, famGCPauseNS, famPoolHits, famPoolMisses)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, "MiB")
	m.set("setup_s", median(setups), "s")
	if !o.trace {
		rep.metrics = m
		return rep, nil
	}

	// Traced run: the same multiset again with a traceparent per request
	// and each run's bundle pulled from the flight recorder. The result
	// line then carries the per-layer metrics.
	tm, traced, err := d.measured(order, w.conns, want, true, rep)
	if err != nil {
		return nil, err
	}
	rep.overhead(m, tm)
	lm := rep.metrics
	foldServe(traced, lm, rep)
	n := float64(len(samples))
	lm.set("go.gc_cycles_per_kop", (after[famGCCycles]-before[famGCCycles])/n*1000, "1/kop")
	lm.set("go.gc_pause_us_per_op", (after[famGCPauseNS]-before[famGCPauseNS])/1000/n, "us")
	hits := after[famPoolHits] - before[famPoolHits]
	misses := after[famPoolMisses] - before[famPoolMisses]
	lm.set("bench.pool_hit_ratio", hits/max(hits+misses, 1), "ratio")
	lm.set("camserve.ready_s", median(readies), "s")
	lm.set("bench.snapshot_prepare_ms", median(prepares), "ms")
	lm.set("codegen.programs_ms", float64(codegen)/1e6, "ms")
	rep.spans = requestSpans(traced)
	return rep, nil
}

// tracedRequest is one request of the spans file: the client span (on
// the phase's clock) and the daemon's bundle spans sharing its trace id
// (on the daemon's clock, from its root span's start).
type tracedRequest struct {
	Benchmark string `json:"benchmark"`
	TraceID   string `json:"trace_id"`
	Start     int64  `json:"client_start_ns"`
	End       int64  `json:"client_end_ns"`
	Spans     []span `json:"spans"`
}

func requestSpans(samples []sample) []tracedRequest {
	out := make([]tracedRequest, len(samples))
	for i, s := range samples {
		out[i] = tracedRequest{s.bench, s.traceID, int64(s.start), int64(s.end), s.spans}
	}
	return out
}

// measured runs one timed phase and returns its end-to-end metrics (the
// median across the phase's blocks), with the steadiness diagnostics of
// the window recorded in rep.
func (d *daemon) measured(order []string, conns int, want map[string]expectation, traced bool, rep *report) (metricSet, []sample, error) {
	host0, self0 := readHostCPU(), selfCPU()
	t0 := time.Now()
	samples, blocks := d.phase(order, conns, want, traced, serveBlocks)
	wall := time.Since(t0)
	host1, self1 := readHostCPU(), selfCPU()
	rep.count(samples)
	m, err := blockMetrics(blocks)
	if err != nil {
		return nil, nil, err
	}
	phase := "timed"
	if traced {
		phase = "traced"
	}
	rep.window(phase, wall, stealShare(host0, host1), blocks, self1-self0)
	return m, samples, nil
}

// foldServe turns the traced phase's bundles into per-layer means (ms
// per request) plus the sim.run share and per-program host ns per
// simulated cycle. A request whose layers do not fold into exactly its
// client latency counts as failed and is left out of the means.
func foldServe(samples []sample, m metricSet, rep *report) {
	sum := map[string]int64{}
	var client, simNS, restore int64
	perBench := map[string][2]int64{} // sim.run ns, cycles
	n := 0
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue // already counted failed
		}
		lat := int64(s.latency())
		layers, err := foldRequest(s.spans, lat)
		var total int64
		for _, l := range serveLayers {
			total += layers[l]
		}
		if err != nil || total != lat {
			rep.failed++
			continue
		}
		for _, l := range serveLayers {
			sum[l] += layers[l]
		}
		n++
		client += lat
		restore += s.restore
		for _, sp := range s.spans {
			if sp.Name == "sim.run" {
				simNS += sp.End - sp.Start
				pb := perBench[s.bench]
				perBench[s.bench] = [2]int64{pb[0] + sp.End - sp.Start, pb[1] + s.cycles}
			}
		}
	}
	per := float64(max(n, 1))
	for _, l := range serveLayers {
		m.set(l, float64(sum[l])/1e6/per, "ms")
	}
	m.set("bench.restore_kib", float64(restore)/1024/per, "KiB")
	m.set("sim.run_share", float64(simNS)/float64(max(client, 1)), "ratio")
	for name, v := range perBench {
		m.set(metricName("sim.ns_per_cycle", name), float64(v[0])/float64(max(v[1], 1)), "ns")
	}
}
