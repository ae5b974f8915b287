package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"flexos/internal/clock"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one client request share its request id.
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int           // index of the enclosing span, -1 for none
	req        int64         // request id, -1 for none
}

// bootSample is one build.NewWorld call's host time and allocation.
type bootSample struct {
	d      time.Duration
	allocB uint64
}

// tracer keeps spans in memory until the run ends. When off, begin and
// end cost one branch.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	boots []bootSample
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// selfTimes sums, per span name, the total and the self time: each
// span's duration minus the part of it its child spans cover. Children
// may overlap (two clients' requests interleave in host time), so the
// covered part is the union of their intervals.
func (t *tracer) selfTimes() (total, self map[string]time.Duration) {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range t.spans {
		total[s.name] += s.end - s.start
		self[s.name] += s.end - s.start - covered(children[i])
	}
	return total, self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var sum time.Duration
	var lo, hi time.Duration = 0, -1
	for _, s := range spans {
		if s.start > hi {
			if hi > lo {
				sum += hi - lo
			}
			lo, hi = s.start, s.end
		} else if s.end > hi {
			hi = s.end
		}
	}
	if hi > lo {
		sum += hi - lo
	}
	return sum
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64((s.end - s.start).Nanoseconds()))
		}
	}
	return out
}

// write saves the spans as CSV: id, name, parent, request, start and
// end in microseconds since the run began.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,req,start_us,end_us")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%.3f,%.3f\n", i, s.name, s.parent, s.req,
			float64(s.start.Nanoseconds())/1e3, float64(s.end.Nanoseconds())/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"host_ops_s", "1/s"},
	{"host_maxrss_mb", "MB"},
	{"sim_ops_s", "1/s"},
	{"sim_req_p50_us", "us"},
	{"sim_req_p99_us", "us"},
}

// hostLayers are the CPU-profile buckets, by the package a sample's
// innermost repository frame belongs to.
var hostLayers = []string{"net", "gate", "sched", "clock", "mem", "app", "build", "explore", "metrics", "bench", "gc", "runtime", "other"}

// simComponents are the per-op cycle metrics read from the server's
// clock ledger.
var simComponents = []clock.Component{
	clock.CompNet, clock.CompCopy, clock.CompGate, clock.CompVMM, clock.CompSched,
	clock.CompAlloc, clock.CompApp, clock.CompLibC, clock.CompSH,
}

func layerSpecs() []metricSpec {
	specs := []metricSpec{
		{"build.boot_ms", "ms"},
		{"build.boot_alloc_mb", "MB"},
		{"explore.front_size", unitCount},
		{"explore.enumerate_pct", unitPct},
		{"explore.calibrate_pct", unitPct},
		{"explore.model_mae_pct", unitPct},
		{"explore.post_cal_mae_pct", unitPct},
		{"explore.model_rank_tau", "tau"},
		{"net.frames_per_op", "frames/op"},
		{"net.coalesced_pct", unitPct},
		{"net.retransmits", unitCount},
		{"gate.crossings_per_op", "crossings/op"},
		{"gate.frames_per_crossing", "frames/crossing"},
		{"sched.switches_per_op", "switches/op"},
		{"sched.steals", unitCount},
		{"sched.ipis", unitCount},
		{"sim.stall_pct", unitPct},
		{"mem.pool_gets_per_op", "gets/op"},
		{"mem.pool_recycle_pct", unitPct},
		{"mem.pool_failed_gets", unitCount},
		{"app.req_host_us_p50", "us"},
		{"app.req_host_us_p99", "us"},
		{"app.req_samples", unitCount},
		{"metrics.observe_ms", "ms"},
		{"runtime.allocs_per_op", "allocs/op"},
		{"runtime.alloc_kb_per_op", "KiB/op"},
		{"runtime.gc_cycles", "count/round"},
		{"trace.host_ops_s", "1/s"},
	}
	for _, c := range simComponents {
		specs = append(specs, metricSpec{"sim." + string(c) + "_cycles_per_op", unitCyclesOp})
	}
	for _, l := range hostLayers {
		specs = append(specs, metricSpec{"host." + l + "_pct", unitPct})
	}
	return specs
}

// layerMetrics computes the traced run's per-layer metrics. Simulated
// counts come from the first round's window (every round repeats it);
// host times are medians over rounds and spans.
func (b *bench) layerMetrics(rounds []*round, prof []byte, info io.Writer) (map[string]metric, error) {
	v := map[string]float64{}
	rd := rounds[0]
	s := rd.sim
	ops := rd.ops
	perOp := func(x uint64) float64 { return float64(x) / ops }
	pct := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}

	var bootMs, bootMB []float64
	for _, bs := range b.tr.boots {
		bootMs = append(bootMs, float64(bs.d.Nanoseconds())/1e6)
		bootMB = append(bootMB, float64(bs.allocB)/1e6)
	}
	v["build.boot_ms"] = median(bootMs)
	v["build.boot_alloc_mb"] = median(bootMB)

	total, self := b.tr.selfTimes()
	if m := rd.model; m != nil {
		v["explore.front_size"] = float64(m.frontSize)
		v["explore.model_mae_pct"] = m.maePct
		v["explore.post_cal_mae_pct"] = m.postMAEPct
		v["explore.model_rank_tau"] = m.tau
		v["explore.enumerate_pct"] = 100 * float64(total["explore.Explore"]+total["explore.ParetoFront"]) / float64(total["round"])
		v["explore.calibrate_pct"] = 100 * float64(total["explore.Calibrate"]) / float64(total["round"])
	}

	frames := s.counters["nic_tx_frames"] + s.counters["nic_rx_frames"]
	v["net.frames_per_op"] = perOp(frames)
	v["net.coalesced_pct"] = pct(s.counters["nic_tx_coalesced"]+s.counters["nic_rx_coalesced"], frames)
	v["net.retransmits"] = float64(s.counters["net_retransmits"])
	v["gate.crossings_per_op"] = perOp(s.crossings)
	if c := s.counters["gate_crossings"]; c > 0 {
		v["gate.frames_per_crossing"] = float64(s.counters["gate_frames"]) / float64(c)
	}
	v["sched.switches_per_op"] = perOp(s.switches)
	v["sched.steals"] = float64(s.steals)
	v["sched.ipis"] = float64(s.ipis)
	var busy uint64
	for c, cyc := range s.ledger {
		if c != clock.CompIdle {
			busy += cyc
		}
	}
	v["sim.stall_pct"] = pct(s.capacity-busy, s.capacity)
	v["mem.pool_gets_per_op"] = perOp(s.counters["pool_gets"])
	v["mem.pool_recycle_pct"] = pct(s.counters["pool_recycles"], s.counters["pool_gets"])
	v["mem.pool_failed_gets"] = float64(s.counters["pool_failed_gets"])
	for _, c := range simComponents {
		v["sim."+string(c)+"_cycles_per_op"] = perOp(s.ledger[c])
	}

	var reqHost, allocs, allocKB, gcs, rate []float64
	for _, r := range rounds {
		reqHost = append(reqHost, r.reqHost...)
		allocs = append(allocs, float64(r.host.allocObjs)/r.ops)
		allocKB = append(allocKB, float64(r.host.allocB)/1024/r.ops)
		gcs = append(gcs, float64(r.host.gcs))
		rate = append(rate, r.ops/r.measured.Seconds())
	}
	v["app.req_host_us_p50"] = quantile(reqHost, 0.50)
	v["app.req_host_us_p99"] = quantile(reqHost, 0.99)
	v["app.req_samples"] = float64(len(s.reqCycles))
	v["metrics.observe_ms"] = median(b.tr.durations("metrics.observe")) / 1e6
	v["runtime.allocs_per_op"] = median(allocs)
	v["runtime.alloc_kb_per_op"] = median(allocKB)
	v["runtime.gc_cycles"] = mean(gcs)
	v["trace.host_ops_s"] = median(rate)

	shares, samples, err := profileShares(prof)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, l := range hostLayers {
		v["host."+l+"_pct"] = shares[l]
	}

	fmt.Fprintf(info, "cpu profile: %d samples\n", samples)
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(info, "span %-24s total %10.3f ms  self %10.3f ms\n", n,
			float64(total[n].Nanoseconds())/1e6, float64(self[n].Nanoseconds())/1e6)
	}

	out := map[string]metric{}
	for _, sp := range layerSpecs() {
		out[sp.name] = metric{Value: v[sp.name], Unit: sp.unit}
	}
	return out, nil
}
