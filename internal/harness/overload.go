package harness

import (
	"errors"
	"fmt"

	"flexos/internal/app/iperf"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// The overload experiment drives each image past its saturation point
// and measures *goodput* — work completed within its service budget —
// as offered load grows. An isolated compartment behind an expensive
// gate is a queueing system: once offered load exceeds its service
// rate, an oblivious server burns full crossing + service cost on
// requests whose answers are already worthless, so goodput collapses.
// With the overload-control plane on (deadline propagation through the
// gates plus deadline-policy admission in the supervisor), stale work
// is shed before the crossing at ~1/10th the cost of serving it, and
// goodput plateaus instead. The direct image has no enforcement points
// — funcGate has no trap boundary and no deadline check — which is the
// flip side of the blast-radius result: no isolation, no control.
//
// All measurements are virtual-time and deterministic. Budgets are
// self-calibrated per image from the unloaded per-request cost, so the
// curves stay meaningful as gate cost constants evolve.

// OverloadRow is one (workload, image, mode, load) measurement.
type OverloadRow struct {
	Workload string  // "redis-get" or "iperf-tcp"
	Image    string  // backend label
	Mode     string  // "shed" (budgets enforced) or "noshed" (accounting only)
	Load     int     // offered-load knob: pipeline depth (redis), connections (iperf)
	Offered  uint64  // requests issued (redis) / bytes sent (iperf)
	Good     uint64  // served within budget
	Late     uint64  // served past budget
	Shed     uint64  // refused by the control plane, answered cheaply
	Goodput  float64 // good kreq/s (redis) / good Mb/s (iperf)

	// Supervisor-side view of the same run.
	SupSheds         uint64 // admission-queue sheds
	SupDeadlineTraps uint64 // gate deadline refusals
}

// BreakerDemo is the circuit-breaker leg: an iperf burst against a
// breaker-protected network stack under a deliberately hopeless budget.
// Repeated sheds trip the breaker open; the server's undeadlined
// recovery drain backs off through the cooldown, becomes the half-open
// probe, and re-closes the breaker — and the transfer still completes.
type BreakerDemo struct {
	Image      string
	Opens      uint64 // open transitions (threshold trips + failed probes)
	Closes     uint64 // successful half-open probes
	FastFails  uint64 // calls failed without crossing while open
	Sheds      uint64 // admission sheds that fed the breaker
	FinalState string // breaker state after the run
	Completed  bool   // the full transfer arrived despite the storm
}

// OverloadResult is the full goodput-vs-offered-load matrix.
type OverloadResult struct {
	Rows    []OverloadRow
	Breaker BreakerDemo
}

// Experiment scale. Budgets are multiples of the measured unloaded
// per-request cost: large enough that an unloaded image is comfortably
// inside them, small enough that deep pipelines / many connections
// push requests past them.
const (
	redisOverloadOps    = 128
	redisBudgetFactor   = 4
	iperfOverloadBytes  = 96 << 10 // per connection
	iperfOverloadRecv   = 4 << 10
	iperfOverloadWrite  = 8 << 10
	iperfOverloadWindow = 16 << 10 // rcv window cap: bounds queueing
	iperfBudgetFactor   = 12
	iperfProcFactor     = 14
	// The breaker leg uses a budget below the unloaded service cost so
	// sheds are guaranteed, and a cooldown long enough to watch the
	// half-open cycle but short enough that the transfer finishes.
	breakerThreshold = 4
	breakerWindow    = 256
	breakerCooldown  = 40_000
)

var (
	redisOverloadBatches = []int{1, 4, 16, 32}
	iperfOverloadConns   = []int{1, 2, 4, 8}
)

// overloadImage is one backend column of the matrix.
type overloadImage struct {
	name    string
	backend gate.Backend
}

func overloadImages() []overloadImage {
	return []overloadImage{
		{name: "direct", backend: gate.FuncCall},
		{name: "mpk-switched", backend: gate.MPKSwitched},
		{name: "vm-rpc", backend: gate.VMRPC},
	}
}

// redisOverloadConfig builds the {libc | rest} image with the store's
// bulk path behind the gate; shed mode arms deadline-policy admission
// in front of it.
func redisOverloadConfig(img overloadImage, shed bool) build.Config {
	cfg := build.Config{
		Name:    img.name,
		Backend: img.backend,
		Alloc:   build.AllocPerCompartment,
	}
	if img.backend == gate.FuncCall {
		cfg.Compartments = build.SingleCompartment()
	} else {
		cfg.Compartments = lcIsolated()
		if shed {
			cfg.Overload = map[string]rt.OverloadSpec{"lc": {Policy: fault.ShedPolicyDeadline}}
		}
	}
	return cfg
}

// iperfOverloadConfig builds the {netstack | rest} image; shed mode
// arms deadline-policy admission in front of the stack.
func iperfOverloadConfig(img overloadImage, shed bool) build.Config {
	cfg := build.Config{
		Name:    img.name,
		Backend: img.backend,
		Alloc:   build.AllocPerCompartment,
	}
	cfg.Net.RecvBuf = iperfOverloadWindow
	if img.backend == gate.FuncCall {
		cfg.Compartments = build.SingleCompartment()
	} else {
		cfg.Compartments = build.NWOnly()
		if shed {
			cfg.Overload = map[string]rt.OverloadSpec{"nw": {Policy: fault.ShedPolicyDeadline}}
		}
	}
	return cfg
}

// redisOverloadScenario runs ops pipelined GETs in batches of batch
// against a server with the given budget; the client tolerates -BUSY
// replies — that is the point of shedding: the connection survives,
// only the stale requests are refused.
func redisOverloadScenario(img overloadImage, shed bool, budget uint64, batch, ops int) Scenario {
	return Scenario{Config: redisOverloadConfig(img, shed), Workload: Redis{
		Op: OpGET, Payload: 256, Ops: ops, Depth: batch, Budget: budget, Enforce: shed}}
}

// iperfPairs is the iperf overload load: conns concurrent transfers,
// one server drain thread and one client each on ports 5001+i, with
// the given per-drain budget, all sharing the server's boot vCPU —
// offered load scales with conns.
type iperfPairs struct {
	conns   int
	budget  uint64
	enforce bool
}

func (iperfPairs) sockets() net.SocketMode { return net.TCPIPThreadMode }

func (wl iperfPairs) start(w *build.World, r *Result) func() ([]error, error) {
	srvs := make([]*iperf.Server, wl.conns)
	errs := make([]error, 2*wl.conns)
	for i := range srvs {
		s := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack,
			uint16(5001+i), iperfOverloadRecv)
		s.Budget = wl.budget
		s.Enforce = wl.enforce
		s.ProcFactor = iperfProcFactor
		srvs[i] = s
		w.Sched.Spawn(fmt.Sprintf("iperf-server-%d", i), w.Server.CPU, func(th *sched.Thread) {
			errs[i] = s.RunOverload(th)
		})
		c := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), uint16(5001+i), iperfOverloadBytes, iperfOverloadWrite)
		w.Sched.Spawn(fmt.Sprintf("iperf-client-%d", i), w.Client.CPU, func(th *sched.Thread) {
			errs[wl.conns+i] = c.Run(th)
		})
	}
	return func() ([]error, error) {
		r.Cycles = w.Server.CPU.Cycles()
		for _, s := range srvs {
			r.Bytes += s.BytesReceived
			r.Overload.Good += s.GoodBytes
			r.Overload.Late += s.LateBytes
			r.Overload.Shed += s.Sheds
			r.Overload.Recvs += s.Recvs
		}
		return errs, delivered(r.Bytes, wl.conns*iperfOverloadBytes, "bytes received")
	}
}

func iperfOverloadScenario(img overloadImage, shed bool, budget uint64, conns int) Scenario {
	return Scenario{Config: iperfOverloadConfig(img, shed),
		Workload: iperfPairs{conns: conns, budget: budget, enforce: shed}}
}

// redisOverloadBudget self-calibrates an image's redis budget from two
// probes that measure command *ages* directly (completion minus wire
// arrival). Depth 1 gives the base age of an unqueued request; depth
// 32 gives the worst age in a deep batch, whose slope over the batch
// is the marginal queueing cost per pipelined command. Budget =
// 2·base + factor·marginal: shallow pipelines sit comfortably inside
// it, deep ones queue their tail commands past it — which is the
// overload signal.
func redisOverloadBudget(img overloadImage) (uint64, error) {
	cal1, err := Run(redisOverloadScenario(img, false, 0, 1, 64))
	if err != nil {
		return 0, fmt.Errorf("calibration depth 1: %w", err)
	}
	cal32, err := Run(redisOverloadScenario(img, false, 0, 32, 64))
	if err != nil {
		return 0, fmt.Errorf("calibration depth 32: %w", err)
	}
	var marginal uint64
	if cal32.Overload.MaxAge > cal1.Overload.MaxAge {
		marginal = (cal32.Overload.MaxAge - cal1.Overload.MaxAge) / 31
	}
	return 2*cal1.Overload.MaxAge + redisBudgetFactor*marginal, nil
}

// overloadRow records one measured run of the matrix; the supervisor
// counters cover the whole run, whose warmup a successful run never
// sheds.
func overloadRow(workload string, img overloadImage, mode string, load, offered int, r *Result, goodput float64) OverloadRow {
	stats := r.World.Server.Sup.Stats()
	return OverloadRow{
		Workload:         workload,
		Image:            img.name,
		Mode:             mode,
		Load:             load,
		Offered:          uint64(offered),
		Good:             r.Overload.Good,
		Late:             r.Overload.Late,
		Shed:             r.Overload.Shed,
		Goodput:          goodput,
		SupSheds:         stats.Sheds,
		SupDeadlineTraps: stats.DeadlineTraps,
	}
}

// redisOverloadRows sweeps pipeline depth for one image.
func redisOverloadRows(img overloadImage) ([]OverloadRow, error) {
	budget, err := redisOverloadBudget(img)
	if err != nil {
		return nil, err
	}
	modes := []string{"noshed"}
	if img.backend != gate.FuncCall {
		modes = append(modes, "shed")
	}
	var rows []OverloadRow
	for _, mode := range modes {
		shed := mode == "shed"
		for _, batch := range redisOverloadBatches {
			r, err := Run(redisOverloadScenario(img, shed, budget, batch, redisOverloadOps))
			if err != nil {
				return nil, fmt.Errorf("batch %d %s: %w", batch, mode, err)
			}
			rows = append(rows, overloadRow("redis-get", img, mode, batch, redisOverloadOps, r,
				clock.OpsPerSec(r.Overload.Good, r.Cycles)/1e3))
		}
	}
	return rows, nil
}

// iperfOverloadRows sweeps connection count for one image.
func iperfOverloadRows(img overloadImage) ([]OverloadRow, uint64, error) {
	cal, err := Run(iperfOverloadScenario(img, false, 0, 1))
	if err != nil {
		return nil, 0, fmt.Errorf("calibration: %w", err)
	}
	if cal.Overload.Recvs == 0 {
		return nil, 0, fmt.Errorf("calibration: no drains")
	}
	budget := iperfBudgetFactor * (cal.Cycles / cal.Overload.Recvs)
	modes := []string{"noshed"}
	if img.backend != gate.FuncCall {
		modes = append(modes, "shed")
	}
	var rows []OverloadRow
	for _, mode := range modes {
		shed := mode == "shed"
		for _, conns := range iperfOverloadConns {
			r, err := Run(iperfOverloadScenario(img, shed, budget, conns))
			if err != nil {
				return nil, 0, fmt.Errorf("conns %d %s: %w", conns, mode, err)
			}
			rows = append(rows, overloadRow("iperf-tcp", img, mode, conns, conns*iperfOverloadBytes, r,
				clock.GbpsFor(r.Overload.Good, r.Cycles)*1e3))
		}
	}
	return rows, budget, nil
}

// runBreakerDemo runs the breaker leg on the MPK-switched iperf image:
// a budget below the unloaded drain cost guarantees sheds, the sheds
// trip the breaker, and the run must still complete — the recovery
// drain carries the half-open probe that closes it again. A transfer
// that comes up short is reported as not Completed rather than failed.
func runBreakerDemo(calibratedBudget uint64) (*BreakerDemo, error) {
	img := overloadImage{name: "mpk-switched", backend: gate.MPKSwitched}
	cfg := iperfOverloadConfig(img, true)
	cfg.Breaker = map[string]rt.BreakerSpec{
		"nw": {Threshold: breakerThreshold, Window: breakerWindow, Cooldown: breakerCooldown},
	}
	// A fraction of the *unloaded* per-drain cost: even fresh data
	// cannot be served in budget, so the deadlined path sheds every
	// time it is tried.
	budget := calibratedBudget / (2 * iperfBudgetFactor)
	if budget == 0 {
		budget = 1
	}
	r, err := Run(Scenario{Config: cfg, Workload: iperfPairs{conns: 2, budget: budget, enforce: true}})
	var short *shortRun
	if errors.As(err, &short) {
		err = checkPoolLeaks(r.World)
	}
	if err != nil {
		return nil, err
	}
	stats := r.World.Server.Sup.Stats()
	return &BreakerDemo{
		Image:      img.name,
		Opens:      stats.BreakerOpens,
		Closes:     stats.BreakerCloses,
		FastFails:  stats.BreakerFastFails,
		Sheds:      stats.Sheds,
		FinalState: r.World.Server.Sup.BreakerState("nw"),
		Completed:  short == nil,
	}, nil
}

// Overload runs the full goodput-vs-offered-load matrix plus the
// circuit-breaker demonstration.
func Overload() (*OverloadResult, error) {
	res := &OverloadResult{}
	var mpkIperfBudget uint64
	for _, img := range overloadImages() {
		rows, err := redisOverloadRows(img)
		if err != nil {
			return nil, fmt.Errorf("harness overload redis/%s: %w", img.name, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	for _, img := range overloadImages() {
		rows, budget, err := iperfOverloadRows(img)
		if err != nil {
			return nil, fmt.Errorf("harness overload iperf/%s: %w", img.name, err)
		}
		if img.backend == gate.MPKSwitched {
			mpkIperfBudget = budget
		}
		res.Rows = append(res.Rows, rows...)
	}
	demo, err := runBreakerDemo(mpkIperfBudget)
	if err != nil {
		return nil, fmt.Errorf("harness overload breaker: %w", err)
	}
	res.Breaker = *demo
	return res, nil
}

// FormatOverload renders the matrix and the breaker leg.
func FormatOverload(r *OverloadResult) string {
	var b []byte
	line := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	line("Overload: goodput vs offered load, per isolation backend\n")
	line("%-10s %-13s %-7s %5s %8s %8s %8s %8s %10s %9s %7s\n",
		"workload", "image", "mode", "load", "offered", "good", "late", "shed",
		"goodput", "supsheds", "dtraps")
	unit := func(w string) string {
		if w == "redis-get" {
			return "kreq/s"
		}
		return "Mb/s"
	}
	for _, row := range r.Rows {
		line("%-10s %-13s %-7s %5d %8d %8d %8d %8d %7.1f %s %9d %7d\n",
			row.Workload, row.Image, row.Mode, row.Load, row.Offered,
			row.Good, row.Late, row.Shed, row.Goodput, unit(row.Workload),
			row.SupSheds, row.SupDeadlineTraps)
	}
	d := r.Breaker
	line("Breaker (%s iperf burst): opens %d, closes %d, fast-fails %d, sheds %d, final %s, completed %v\n",
		d.Image, d.Opens, d.Closes, d.FastFails, d.Sheds, d.FinalState, d.Completed)
	return string(b)
}
