// Command perfbench is the repository benchmark. It boots simulated
// FlexOS worlds through the public layer functions, drives one named
// workload in repeated rounds for a host-time budget, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output, one JSON
// object.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload redis-mix --seed 1 --seconds 10 --trace 0
//
// Each round boots fresh worlds and replays the same seeded inputs, so
// every simulated-plane number repeats exactly from round to round; the
// round digests are compared to prove it. Host-plane numbers are the
// medians over the rounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// Seeds. The default seed is the one claims are developed against; the
// held-out seed is reserved for checking a claim once it is made.
const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	minRounds    = 3
	simHz        = 2.1e9
	unitCount    = "count"
	unitPct      = "%"
	unitCyclesOp = "cycles/op"
)

// sizing is the per-round work of each workload. Rounds are sized so a
// 10-second run holds several of them; tinySizing keeps the self-test
// fast.
type sizing struct {
	mixKeys, mixBatches int // per connection
	iperfBytes          int
	sweepOps            int // redis GETs per candidate
	sweepIperfBytes     int // iperf transfer per candidate
}

var (
	fullSizing = sizing{mixKeys: 1024, mixBatches: 2048, iperfBytes: 24 << 20, sweepOps: 300, sweepIperfBytes: 512 << 10}
	tinySizing = sizing{mixKeys: 8, mixBatches: 8, iperfBytes: 1 << 20, sweepOps: 16, sweepIperfBytes: 64 << 10}
)

// options is one invocation. The fault hooks plant deliberate errors so
// the self-test can prove the checks fire.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	outDir    string
	size      sizing
	minRounds int

	corruptExpect bool // check one output against a wrong expected value
	oversizeBatch bool // send one pipelined batch larger than the client buffer
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string // simulated-plane digest of the first good round
}

// workloads maps each workload name to its round function.
var workloads = map[string]func(*bench, int) *round{
	"redis-mix":    (*bench).redisMixRound,
	"iperf-bulk":   (*bench).iperfBulkRound,
	"design-sweep": (*bench).sweepRound,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "redis-mix", "workload: redis-mix, iperf-bulk or design-sweep")
	flag.Uint64Var(&o.seed, "seed", defaultSeed,
		fmt.Sprintf("seed of the workload's inputs (claims are checked again on the held-out seed %d)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep starting rounds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and a CPU profile and prints the per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for the traced run's spans file")
	flag.Parse()
	// The simulator runs one goroutine at a time; on one P the host
	// numbers do not depend on how the OS spreads goroutine handoffs
	// and GC workers over cores shared with other tenants.
	runtime.GOMAXPROCS(1)
	o.trace = trace != 0
	o.size = fullSizing
	o.minRounds = minRounds
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the rounds of one workload and builds its report.
// Informational lines (digest, checks, span self times) go to info.
func run(o options, info io.Writer) (*report, error) {
	b := newBench(o)
	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	start := time.Now()
	var rounds []*round
	for len(rounds) < o.minRounds || time.Since(start).Seconds() < o.seconds {
		// Each round starts from a collected heap, so one round's
		// garbage is not charged to the next.
		runtime.GC()
		root := b.tr.begin("round", -1, int64(len(rounds)))
		rd := workloads[o.workload](b, root)
		b.tr.end(root)
		rounds = append(rounds, rd)
	}
	if o.trace {
		pprof.StopCPUProfile()
	}
	maxRSS := maxRSSMB()
	checks := b.crossCheck(rounds)

	rep := &report{Metrics: map[string]metric{}}
	digest := ""
	for i, rd := range rounds {
		switch {
		case rd.err != nil:
		case digest == "":
			digest = rd.digest
		case rd.digest != digest:
			rd.err = fmt.Errorf("simulated-plane digest %s differs from the first round's %s", rd.digest, digest)
		}
		rep.Attempted += rd.requests
		if rd.err != nil || checks != nil {
			rep.Failed += rd.requests
			if rd.err != nil {
				fmt.Fprintf(info, "check failed: round %d: %v\n", i, rd.err)
			}
		}
	}
	if checks != nil {
		fmt.Fprintf(info, "check failed: %v\n", checks)
	}
	if rep.Attempted == 0 {
		rep.Attempted = 1
		rep.Failed = 1
	}
	rep.Correct = rep.Failed == 0
	rep.digest = digest
	fmt.Fprintf(info, "workload %s seed %d: %d rounds, simulated-plane digest %s\n", o.workload, o.seed, len(rounds), digest)

	good := goodRounds(rounds)
	if len(good) > 1 {
		// The first round warms the Go heap and caches: it is checked
		// like any other, but host-plane figures leave it out.
		good = good[1:]
	}
	if len(good) == 0 {
		// Nothing measured: report the failure with placeholder values.
		specs := endToEndSpecs
		if o.trace {
			specs = layerSpecs()
		}
		for _, s := range specs {
			rep.Metrics[s.name] = metric{Value: 0, Unit: s.unit}
		}
		return rep, nil
	}
	if o.trace {
		layers, err := b.layerMetrics(good, prof.Bytes(), info)
		if err != nil {
			return nil, err
		}
		rep.Metrics = layers
		if err := b.tr.write(filepath.Join(o.outDir, "spans-"+o.workload+".csv")); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics = endToEnd(good, maxRSS)
	}
	return rep, nil
}

// goodRounds keeps the rounds whose checks passed.
func goodRounds(rounds []*round) []*round {
	var out []*round
	for _, rd := range rounds {
		if rd.err == nil {
			out = append(out, rd)
		}
	}
	return out
}

// endToEnd computes the untraced run's metrics. Host-plane values are
// medians over rounds; simulated-plane values come from the first round
// (every round's digest matched it).
func endToEnd(rounds []*round, maxRSS float64) map[string]metric {
	var setup, rate []float64
	for _, rd := range rounds {
		setup = append(setup, rd.setup.Seconds())
		rate = append(rate, rd.ops/rd.measured.Seconds())
	}
	sim := rounds[0].sim
	lat := cyclesToMicros(sim.reqCycles)
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"host_ops_s":     {median(rate), "1/s"},
		"host_maxrss_mb": {maxRSS, "MB"},
		"sim_ops_s":      {rounds[0].ops / (float64(sim.cycles) / simHz), "1/s"},
		"sim_req_p50_us": {quantile(lat, 0.50), "us"},
		"sim_req_p99_us": {quantile(lat, 0.99), "us"},
	}
}

// maxRSSMB reports the process's peak resident set in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func cyclesToMicros(cycles []uint64) []float64 {
	out := make([]float64, len(cycles))
	for i, c := range cycles {
		out[i] = float64(c) / simHz * 1e6
	}
	return out
}
