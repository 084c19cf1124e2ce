package main

// Admission-control tests: bounded queueing admits when a slot frees,
// drain sheds queued waiters and refuses new work, finalize records
// un-drained runs as aborted, and the run slots bound how many machines
// the run path builds.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"cambricon/internal/bench"
	"cambricon/internal/ledger"
)

// TestQueuedRequestAdmittedWhenSlotFrees: with queue depth > 0 a
// request that finds the slots busy waits instead of bouncing, and
// completes once the slot frees.
func TestQueuedRequestAdmittedWhenSlotFrees(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 1, queueDepth: 4, ledgerSize: 8,
	})
	s.adm.slots <- struct{}{} // occupy the only slot
	done := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(runRequest{Benchmark: "MLP"})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// The request must be queued, not answered, while the slot is held.
	select {
	case code := <-done:
		t.Fatalf("request answered %d while the slot was held; want it queued", code)
	case <-time.After(150 * time.Millisecond):
	}
	<-s.adm.slots // free the slot; the queued waiter takes it
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("queued request = %d, want 200 after the slot freed", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed after the slot freed")
	}
}

// TestQueueOverflowShedsPerBenchmark: waiters beyond -queue-depth shed
// with queue-full while the queue itself keeps waiting.
func TestQueueOverflowSheds(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 1, queueDepth: 1, ledgerSize: 16,
	})
	s.adm.slots <- struct{}{}
	queued := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(runRequest{Benchmark: "MLP"})
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			queued <- -1
			return
		}
		resp.Body.Close()
		queued <- resp.StatusCode
	}()
	// Wait until the waiter is registered in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.adm.mu.Lock()
		n := s.adm.waiting["MLP"]
		s.adm.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The queue is at depth: the next request sheds immediately.
	resp, _ := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-depth POST /run = %d, want 503", resp.StatusCode)
	}
	page := scrape(t, ts.URL)
	if got := labeledMetricValue(t, page, metricSheds+`{benchmark="MLP",reason="queue-full"}`); got != 1 {
		t.Fatalf("queue-full sheds = %v, want 1", got)
	}
	<-s.adm.slots
	if code := <-queued; code != http.StatusOK {
		t.Fatalf("queued request = %d, want 200", code)
	}
}

// TestDrainShedsAndFinalizeRecordsAborted: startDrain turns new work
// into draining 503s, and finalize writes an aborted ledger row for
// whatever was still running when the drain deadline expired.
func TestDrainShedsAndFinalizeRecordsAborted(t *testing.T) {
	s, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: 2, queueDepth: 4, ledgerSize: 8,
	})
	s.adm.startDrain()
	resp, _ := postRun(t, ts.URL, "MLP")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /run while draining = %d, want 503", resp.StatusCode)
	}
	page := scrape(t, ts.URL)
	if got := labeledMetricValue(t, page, metricSheds+`{benchmark="MLP",reason="draining"}`); got != 1 {
		t.Fatalf("draining sheds = %v, want 1", got)
	}
	// A run that never finished by the drain deadline gets an aborted row.
	id := s.ledger.NewID()
	row := ledger.Row{ID: id, Benchmark: "MLP", Start: "t", Status: ledger.StatusRunning}
	s.append(context.Background(), row)
	s.inflight.Store(id, row)
	if aborted := s.finalize(context.Background()); aborted != 1 {
		t.Fatalf("finalize recorded %d aborted runs, want 1", aborted)
	}
	got, ok := s.ledger.Get(id)
	if !ok || got.Status != ledger.StatusAborted || got.Error == "" {
		t.Fatalf("un-drained run row = %+v (found %v), want aborted with an error", got, ok)
	}
}

// TestRunSlotsBoundPoolMachines: a run holds its machine only inside its
// run slot, and the pool builds only when nothing is idle, so however
// bursty the traffic the run path never builds more machines than there
// are slots. That bound is why the pool needs no size controller. Every
// run stalls 20ms on its machine, so a burst really overlaps (without the
// bound, each wave would hold six machines at once) even on a host with
// fewer cores than the burst.
func TestRunSlotsBoundPoolMachines(t *testing.T) {
	const slots = 2
	_, ts := testServerCfg(t, serverConfig{
		seed: 7, maxInflight: slots, queueDepth: 8, ledgerSize: 32,
		chaosSpec: "run-delay=20ms",
	})
	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		codes := make([]int, 6)
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := "MLP"
				if i%2 == 1 {
					name = "CNN"
				}
				body, _ := json.Marshal(runRequest{Benchmark: name})
				resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					return
				}
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		for i, code := range codes {
			if code != http.StatusOK {
				t.Fatalf("wave %d request %d = %d, want 200 (the queue holds the burst)", wave, i, code)
			}
		}
	}
	misses := metricValue(t, scrape(t, ts.URL), bench.MetricPoolMisses)
	if misses < 1 || misses > slots {
		t.Fatalf("%s = %v after three waves of 6, want 1..%d (one build per run slot at most)",
			bench.MetricPoolMisses, misses, slots)
	}
	if resp, _ := postRun(t, ts.URL, "CNN"); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the waves = %d, want 200", resp.StatusCode)
	}
	if got := metricValue(t, scrape(t, ts.URL), bench.MetricPoolMisses); got != misses {
		t.Fatalf("%s = %v after one more run, want %v (the pool already holds its machines)",
			bench.MetricPoolMisses, got, misses)
	}
}
