package reqtrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenBundle builds a deterministic request bundle: fixed trace
// identity and a scripted clock, shaped like a real camserve /run
// request (semaphore wait, pool acquire + restore, the simulation,
// JSON encode).
func goldenBundle() *Bundle {
	tp, _ := ParseTraceparent(validHeader)
	r := NewRecorder("request", tp)
	r.self = SpanID{0xde, 0xad, 0xbe, 0xef, 0x08, 0x15, 0x47, 0x11}
	ticks := []time.Duration{
		5 * time.Microsecond,    // sem.acquire start
		7 * time.Microsecond,    // sem.acquire end
		10 * time.Microsecond,   // pool.acquire start
		52500 * time.Nanosecond, // pool.acquire end
		60 * time.Microsecond,   // snapshot.restore start
		180 * time.Microsecond,  // snapshot.restore end
		200 * time.Microsecond,  // sim.run start
		1450 * time.Microsecond, // sim.run end
		1460 * time.Microsecond, // encode.json start
		1475 * time.Microsecond, // encode.json end
		1480 * time.Microsecond, // root end (Finish)
	}
	i := 0
	r.clock = func() time.Duration { d := ticks[i]; i++; return d }

	sem := r.Start(Root, "sem.acquire")
	r.End(sem)
	pool := r.Start(Root, "pool.acquire")
	r.AnnotateBool(pool, "reused", true)
	r.End(pool)
	rest := r.Start(Root, "snapshot.restore")
	r.AnnotateInt(rest, "bytes", 73728)
	r.End(rest)
	run := r.Start(Root, "sim.run")
	r.AnnotateInt(run, "cycles", 188640)
	r.AnnotateInt(run, "instructions", 4673)
	r.End(run)
	enc := r.Start(Root, "encode.json")
	r.End(enc)
	r.AnnotateStr(Root, "benchmark", "MLP")
	r.AnnotateStr(Root, "status", "ok")
	return r.Finish()
}

// TestWriteChromeGolden pins the exporter's byte output (the format
// Perfetto and chrome://tracing load) and checks it is valid JSON with
// the expected event structure.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenBundle().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// Structural validity: the document must parse as Chrome Trace JSON
	// with one X event per span plus the two metadata events.
	var doc struct {
		OtherData struct {
			TraceID string `json:"trace_id"`
		} `json:"otherData"`
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %q", doc.OtherData.TraceID)
	}
	var xs int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			xs++
			if ev.Dur < 0 {
				t.Fatalf("negative duration event %+v", ev)
			}
		}
	}
	if xs != 6 { // root + 5 phases
		t.Fatalf("got %d X events, want 6", xs)
	}
	// Sub-microsecond edges keep their precision: pool.acquire ends at
	// 52.5us, so its duration is 42.5us.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "pool.acquire" {
			found = true
			if ev.TS != 10 || ev.Dur != 42.5 {
				t.Fatalf("pool.acquire ts=%v dur=%v, want 10/42.5", ev.TS, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("pool.acquire event missing")
	}
}

// TestWriteChromeEmptyBundle: a bundle with only a root span still
// produces a loadable document.
func TestWriteChromeEmptyBundle(t *testing.T) {
	r := NewRecorder("request", Traceparent{})
	var buf bytes.Buffer
	if err := r.Finish().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.Bytes())
	}
}
