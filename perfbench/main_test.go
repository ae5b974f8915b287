package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"flexos/internal/sched"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny runs a workload at the self-test size: two rounds, so the digest
// comparison between rounds runs too.
func tiny(t *testing.T, workload string, seed uint64, trace bool, edit func(*options)) *report {
	t.Helper()
	o := options{
		workload:  workload,
		seed:      seed,
		trace:     trace,
		outDir:    t.TempDir(),
		size:      tinySizing,
		minRounds: 2,
	}
	if edit != nil {
		edit(&o)
	}
	rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rep
}

// Every workload, traced and untraced, prints exactly the metrics
// BENCHMARK.json names, each with its unit, and passes its checks.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep := tiny(t, w.Name, defaultSeed, trace, nil)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := rep.Metrics[name]
				if !ok || got.Unit == "" || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.Name, trace, name, got, ok, unit)
				}
			}
			if !trace {
				for name, m := range rep.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

// A deliberately wrong expected value must fail the run's checks on
// every workload.
func TestWrongExpectationFails(t *testing.T) {
	for name := range workloads {
		rep := tiny(t, name, defaultSeed, false, func(o *options) { o.corruptExpect = true })
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s with a wrong expected value: correct=%v failed=%d of %d", name, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// A client whose pipelined batch exceeds its buffer closes its
// connection, so the error is counted instead of ending the run in a
// scheduler deadlock.
func TestOversizeBatchIsCountedNotDeadlocked(t *testing.T) {
	o := options{workload: "redis-mix", seed: defaultSeed, size: tinySizing, minRounds: 1, oversizeBatch: true}
	rd := newBench(o).redisMixRound(-1)
	if rd.err == nil {
		t.Fatal("oversized batch passed")
	}
	if errors.Is(rd.err, sched.ErrDeadlock) || !strings.Contains(rd.err.Error(), "exceeds") {
		t.Fatalf("oversized batch surfaced as %v, want the client's buffer error", rd.err)
	}
	rep := tiny(t, "redis-mix", defaultSeed, false, func(o *options) { o.oversizeBatch = true })
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Errorf("oversized batch: correct=%v failed=%d of %d", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// The simulated plane replays bit-identically for a seed and follows
// the seed.
func TestDigestRepeatsForASeed(t *testing.T) {
	for name := range workloads {
		a := tiny(t, name, defaultSeed, false, nil)
		b := tiny(t, name, defaultSeed, false, nil)
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digests %q and %q for one seed", name, a.digest, b.digest)
		}
		for _, m := range endToEndSpecs {
			if strings.HasPrefix(m.name, "sim_") && a.Metrics[m.name].Value != b.Metrics[m.name].Value {
				t.Errorf("%s: %s %v then %v for one seed", name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
		}
	}
	if a, b := tiny(t, "redis-mix", 1, false, nil), tiny(t, "redis-mix", 2, false, nil); a.digest == b.digest {
		t.Errorf("redis-mix: seeds 1 and 2 share digest %s", a.digest)
	}
}

// The profile parser must read the runtime's own encoding.
func TestProfileClassification(t *testing.T) {
	cases := map[string][]string{
		"net":     {"runtime.memmove", "flexos/internal/net.(*Stack).encodeFrame"},
		"gate":    {"flexos/internal/rt.(*Env).CallFn.func1", "main.main"},
		"explore": {"flexos/internal/core/coloring.Color"},
		"bench":   {"main.(*bench).redisMixRound"},
		"gc":      {"runtime.scanobject", "runtime.gcDrain", "flexos/internal/net.x"},
		"runtime": {"runtime.mcall", "runtime.schedule"},
		"other":   {"flexos/internal/sh.(*Hardener).OnTouch"},
	}
	for want, frames := range cases {
		if got := classify(frames); got != want {
			t.Errorf("classify(%v) = %s, want %s", frames, got, want)
		}
	}
}

var spinSink uint64

// spin burns CPU in this package for d, in registers, so the race
// detector's instrumentation does not take the samples.
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

// A real runtime/pprof profile parses, and its samples land in the
// layer of the code that burned them.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(500 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("no samples parsed")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 || shares["bench"] < 50 {
		t.Errorf("shares %v over %d samples: want a total of 100%% and most in bench", shares, samples)
	}
}
