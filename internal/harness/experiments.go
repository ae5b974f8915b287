package harness

import (
	"fmt"
	"slices"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/net"
	"flexos/internal/sched"
	"flexos/internal/sh"
)

// SHProfile is the hardening bundle of the paper's prototype under
// GCC: KASAN + stack protector + UBSAN.
var SHProfile = sh.Profile{ASAN: true, StackProtector: true, UBSan: true}

// shAll returns an SH map hardening the given libraries.
func shAll(libs ...string) map[string]sh.Profile {
	m := make(map[string]sh.Profile, len(libs))
	for _, l := range libs {
		m[l] = SHProfile
	}
	return m
}

// --- Fig. 3: iperf throughput across isolation mechanisms -----------

// Fig3Point is one (buffer size, throughput) sample.
type Fig3Point struct {
	RecvBuf int
	Mbps    float64
}

// Fig3Series is one curve of Fig. 3.
type Fig3Series struct {
	Label  string
	Points []Fig3Point
}

// Fig3Result regenerates Fig. 3: iperf throughput as the recv buffer
// grows from 2^6 to 2^20 bytes, for the KVM baseline, both MPK gates,
// software hardening of the network stack, the Xen baseline and the
// VM-RPC backend.
type Fig3Result struct {
	Series []Fig3Series
}

// nwOnly is the {netstack | rest} image of the evaluation under the
// given gate and platform, with one allocator per compartment.
func nwOnly(name string, b gate.Backend, p net.Platform) build.Config {
	return build.Config{Name: name, Compartments: build.NWOnly(), Backend: b,
		Alloc: build.AllocPerCompartment, Platform: p}
}

// fig3Configs are the six configurations of the paper's figure.
func fig3Configs() []build.Config {
	return []build.Config{
		{Name: "KVM Baseline"},
		nwOnly("CHERI (KVM)", gate.CHERI, net.KVM),
		nwOnly("MPK-Sha. (KVM)", gate.MPKShared, net.KVM),
		nwOnly("MPK-Sw. (KVM)", gate.MPKSwitched, net.KVM),
		{Name: "SH (KVM)", SH: shAll("netstack"), Alloc: build.AllocPerLibrary},
		{Name: "Xen Baseline", Platform: net.Xen},
		nwOnly("VM RPC (Xen)", gate.VMRPC, net.Xen),
	}
}

// fig3Sizes is the recv-buffer sweep (2^6 .. 2^20).
func fig3Sizes(quick bool) []int {
	var sizes []int
	step := 2
	if quick {
		step = 4
	}
	for p := 6; p <= 20; p += step {
		sizes = append(sizes, 1<<p)
	}
	return sizes
}

// sweepIperf is the transfer of a recv-buffer sweep point: 16 buffers'
// worth, clamped to [512 KiB, 8 MiB].
func sweepIperf(recvBuf int) Iperf {
	return Iperf{Bytes: min(max(16*recvBuf, 512<<10), 8<<20), RecvBuf: recvBuf}
}

// Fig3 runs the sweep. quick thins the sweep for tests.
func Fig3(quick bool) (*Fig3Result, error) {
	sizes := fig3Sizes(quick)
	out := &Fig3Result{}
	for _, cfg := range fig3Configs() {
		s := Fig3Series{Label: cfg.Name}
		for _, size := range sizes {
			r, err := Run(Scenario{Config: cfg, Workload: sweepIperf(size)})
			if err != nil {
				return nil, fmt.Errorf("fig3 %s @%d: %w", cfg.Name, size, err)
			}
			s.Points = append(s.Points, Fig3Point{RecvBuf: size, Mbps: r.Gbps() * 1000})
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// --- Table 1: iperf with SH on individual components ------------------

// Table1Row is one component's row: throughput with SH on everything
// but the component, and with SH on the component only.
type Table1Row struct {
	Component    string
	AllButCGbps  float64
	COnlyGbps    float64
	PaperAllButC float64 // Gb/s from the paper, for the report
	PaperCOnly   float64
}

// Table1Result regenerates Table 1.
type Table1Result struct {
	BaselineGbps float64
	Rows         []Table1Row
}

// table1Groups maps the paper's component rows to library sets ("rest
// of the system" includes iperf itself).
var table1Groups = []struct {
	name        string
	libs        []string
	paperAllBut float64
	paperOnly   float64
}{
	{"Scheduler", []string{"sched"}, 0.496, 2.90},
	{"Network stack", []string{"netstack"}, 0.631, 2.76},
	{"LibC", []string{"libc"}, 1.47, 1.25},
	{"Rest of the system", []string{"rest", "app", "alloc"}, 1.08, 2.50},
	{"Entire system", []string{"sched", "netstack", "libc", "rest", "app", "alloc"}, 2.94, 0.489},
}

// table1RecvBuf is the iperf recv-buffer size for Table 1 runs.
const table1RecvBuf = 8 << 10

// Table1 runs every row.
func Table1() (*Table1Result, error) {
	const total = 4 << 20
	run := func(shLibs []string) (float64, error) {
		cfg := build.Config{Name: "table1", Alloc: build.AllocPerLibrary, SH: shAll(shLibs...)}
		r, err := Run(Scenario{Config: cfg, Workload: Iperf{Bytes: total, RecvBuf: table1RecvBuf}})
		if err != nil {
			return 0, err
		}
		return r.Gbps(), nil
	}
	baseline, err := run(nil)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{BaselineGbps: baseline}
	for _, g := range table1Groups {
		var complement []string
		for _, l := range build.DefaultLibraries {
			if !slices.Contains(g.libs, l) {
				complement = append(complement, l)
			}
		}
		allBut, err := run(complement)
		if err != nil {
			return nil, fmt.Errorf("table1 all-but-%s: %w", g.name, err)
		}
		only, err := run(g.libs)
		if err != nil {
			return nil, fmt.Errorf("table1 %s-only: %w", g.name, err)
		}
		out.Rows = append(out.Rows, Table1Row{
			Component:    g.name,
			AllButCGbps:  allBut,
			COnlyGbps:    only,
			PaperAllButC: g.paperAllBut,
			PaperCOnly:   g.paperOnly,
		})
	}
	return out, nil
}

// --- Fig. 4: Redis under SH configs and the verified scheduler -------

// Fig4Cell is one bar of Fig. 4.
type Fig4Cell struct {
	Config  string
	Op      RedisOp
	Payload int
	KReqS   float64
}

// Fig4Result regenerates Fig. 4.
type Fig4Result struct {
	Cells []Fig4Cell
}

// Fig4Payloads are the paper's payload sizes.
var Fig4Payloads = []int{5, 50, 500}

// fig4Configs are the four bar groups: no SH, SH on the network stack
// with a global allocator, the same with per-library allocators, and
// the verified scheduler.
func fig4Configs() []build.Config {
	return []build.Config{
		{Name: "No SH"},
		{Name: "SH global alloc", SH: shAll("netstack"), Alloc: build.AllocGlobal},
		{Name: "SH local alloc", SH: shAll("netstack"), Alloc: build.AllocPerLibrary},
		{Name: "Verified Sched", Sched: build.SchedVerified},
	}
}

// Fig4 runs SET and GET for every payload and config.
func Fig4(ops int) (*Fig4Result, error) {
	if ops <= 0 {
		ops = 300
	}
	out := &Fig4Result{}
	for _, cfg := range fig4Configs() {
		for _, payload := range Fig4Payloads {
			for _, op := range []RedisOp{OpSET, OpGET} {
				r, err := Run(Scenario{Config: cfg, Workload: Redis{Op: op, Payload: payload, Ops: ops}})
				if err != nil {
					return nil, fmt.Errorf("fig4 %s %s/%dB: %w", cfg.Name, op, payload, err)
				}
				out.Cells = append(out.Cells, Fig4Cell{
					Config: cfg.Name, Op: op, Payload: payload, KReqS: r.KReqPerSec(),
				})
			}
		}
	}
	return out, nil
}

// --- Fig. 5: Redis under MPK compartmentalization models --------------

// Fig5Cell is one bar of Fig. 5.
type Fig5Cell struct {
	Model   string // "No Isol." | "NW-only" | "NW/Sched/Rest" | "NW+Sched/Rest"
	Stack   string // "-" | "Sh." | "Sw."
	Payload int
	KReqS   float64
}

// Fig5Result regenerates Fig. 5.
type Fig5Result struct {
	Cells []Fig5Cell
}

// fig5Models are the paper's compartmentalization models.
var fig5Models = []struct {
	name  string
	comps []build.Compartment
}{
	{"NW-only", build.NWOnly()},
	{"NW/Sched/Rest", build.NWSchedRest()},
	{"NW+Sched/Rest", build.NWPlusSched()},
}

// Fig5 measures GET throughput under each model with both MPK gate
// flavors, plus the no-isolation baseline.
func Fig5(ops int) (*Fig5Result, error) {
	if ops <= 0 {
		ops = 300
	}
	out := &Fig5Result{}
	for _, payload := range Fig4Payloads {
		get := Redis{Op: OpGET, Payload: payload, Ops: ops}
		r, err := Run(Scenario{Config: build.Config{Name: "No Isol."}, Workload: get})
		if err != nil {
			return nil, fmt.Errorf("fig5 baseline/%dB: %w", payload, err)
		}
		out.Cells = append(out.Cells, Fig5Cell{Model: "No Isol.", Stack: "-", Payload: payload, KReqS: r.KReqPerSec()})
		for _, m := range fig5Models {
			for _, variant := range []struct {
				label   string
				backend gate.Backend
			}{{"Sh.", gate.MPKShared}, {"Sw.", gate.MPKSwitched}} {
				cfg := build.Config{
					Name:         m.name + " " + variant.label,
					Compartments: m.comps,
					Backend:      variant.backend,
					Alloc:        build.AllocPerCompartment,
				}
				r, err := Run(Scenario{Config: cfg, Workload: get})
				if err != nil {
					return nil, fmt.Errorf("fig5 %s/%dB: %w", cfg.Name, payload, err)
				}
				out.Cells = append(out.Cells, Fig5Cell{
					Model: m.name, Stack: variant.label, Payload: payload, KReqS: r.KReqPerSec(),
				})
			}
		}
	}
	return out, nil
}

// --- §4: context-switch latency ---------------------------------------

// CtxSwitchResult regenerates the verified-scheduler latency numbers.
type CtxSwitchResult struct {
	CNanos        float64
	VerifiedNanos float64
	PaperCNanos   float64
	PaperVNanos   float64
}

// CtxSwitch measures per-switch latency of both schedulers with two
// yielding threads.
func CtxSwitch() (*CtxSwitchResult, error) {
	measure := func(s sched.Scheduler) (float64, error) {
		cpu := clock.New()
		const rounds = 2000
		body := func(th *sched.Thread) {
			for i := 0; i < rounds; i++ {
				th.Yield()
			}
		}
		s.Spawn("a", cpu, body)
		s.Spawn("b", cpu, body)
		if err := s.Run(); err != nil {
			return 0, err
		}
		return clock.Nanoseconds(s.ContextSwitches()*s.SwitchCost()) / float64(s.ContextSwitches()), nil
	}
	c, err := measure(sched.NewCScheduler())
	if err != nil {
		return nil, err
	}
	v, err := measure(sched.NewVerifiedScheduler())
	if err != nil {
		return nil, err
	}
	return &CtxSwitchResult{CNanos: c, VerifiedNanos: v, PaperCNanos: 76.6, PaperVNanos: 218.6}, nil
}

// --- Data path: descriptor passing vs boundary copies ----------------

// DataPathPoint compares one recv-buffer size under both data paths on
// the MPK-shared NW-only image.
type DataPathPoint struct {
	RecvBuf    int
	SharedMbps float64
	CopyMbps   float64
	// CopyCycles is the cycle total attributed to clock.CompCopy under
	// the copy data path (zero under shared, by construction).
	CopyCycles uint64
	// SpeedupPct is the shared-over-copy throughput gain in percent.
	SpeedupPct float64
}

// DataPathResult is the copy-vs-shared sweep.
type DataPathResult struct {
	Label  string
	Points []DataPathPoint
}

// dataPathSizes is the recv-buffer sweep of the data-path experiment.
func dataPathSizes(quick bool) []int {
	if quick {
		return []int{16 << 10}
	}
	return []int{4 << 10, 16 << 10, 64 << 10}
}

// DataPath measures the zero-copy win: the same MPK-shared NW-only
// image run with shared-window descriptors and with per-boundary
// copies, throughput attributed per component.
func DataPath(quick bool) (*DataPathResult, error) {
	base := nwOnly("MPK-Sha. NW-only", gate.MPKShared, net.KVM)
	out := &DataPathResult{Label: base.Name}
	for _, size := range dataPathSizes(quick) {
		run := func(dp net.DataPath) (*Result, error) {
			cfg := base
			cfg.DataPath = dp
			return Run(Scenario{Config: cfg, Workload: sweepIperf(size)})
		}
		shared, err := run(net.DataPathShared)
		if err != nil {
			return nil, fmt.Errorf("datapath shared @%d: %w", size, err)
		}
		copied, err := run(net.DataPathCopy)
		if err != nil {
			return nil, fmt.Errorf("datapath copy @%d: %w", size, err)
		}
		p := DataPathPoint{
			RecvBuf:    size,
			SharedMbps: shared.Gbps() * 1000,
			CopyMbps:   copied.Gbps() * 1000,
			CopyCycles: copied.ByComponent[clock.CompCopy],
		}
		if p.CopyMbps > 0 {
			p.SpeedupPct = (p.SharedMbps/p.CopyMbps - 1) * 100
		}
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// --- Batching: gate-crossing amortization -----------------------------

// BatchingPoint is one (depth, throughput) sample of a batching series.
type BatchingPoint struct {
	Depth        int
	Mbps         float64
	ServerCycles uint64
	Crossings    uint64
	ByComponent  map[clock.Component]uint64
	// SpeedupPct is the throughput gain over the depth-1 point of the
	// same series, in percent.
	SpeedupPct float64
}

// BatchingSeries is one backend's depth sweep.
type BatchingSeries struct {
	Label   string
	Backend gate.Backend
	Points  []BatchingPoint
}

// BatchingResult is the crossing-amortization sweep: iperf throughput
// as the batch depth grows, per isolation backend. Direct calls pay
// (nearly) nothing per crossing, so their curve is flat and bounds how
// much of each isolating backend's win is amortization rather than
// workload restructuring.
type BatchingResult struct {
	Depths []int
	Series []BatchingSeries
}

// batchingDepths is the depth sweep of the batching experiment.
func batchingDepths(quick bool) []int {
	if quick {
		return []int{1, 16}
	}
	return []int{1, 4, 16, 64}
}

// batchingConfigs are the swept images: the same NW-only plan under a
// free gate, the expensive MPK-switched gate, and the VM-RPC gate.
func batchingConfigs() []build.Config {
	return []build.Config{
		nwOnly("Direct NW-only", gate.FuncCall, net.KVM),
		nwOnly("MPK-Sw. NW-only", gate.MPKSwitched, net.KVM),
		nwOnly("VM RPC NW-only", gate.VMRPC, net.Xen),
	}
}

// Batching measures how batched gate calls, NIC coalescing and
// app-level pipelining amortize crossing cost: the same iperf transfer
// at each batch depth, per backend. Depth d sets the batch directive on
// both compartments — vectored socket calls cross into nw d frames at
// a time, and the core compartment's tx doorbell/rx budget coalesce
// the NIC path.
func Batching(quick bool) (*BatchingResult, error) {
	const (
		total   = 2 << 20
		recvBuf = 16 << 10
	)
	out := &BatchingResult{Depths: batchingDepths(quick)}
	for _, base := range batchingConfigs() {
		s := BatchingSeries{Label: base.Name, Backend: base.Backend}
		for _, depth := range out.Depths {
			cfg := base
			if depth > 1 {
				cfg.Batch = map[string]int{"nw": depth, "core": depth}
			}
			r, err := Run(Scenario{Config: cfg, Workload: Iperf{Bytes: total, RecvBuf: recvBuf}})
			if err != nil {
				return nil, fmt.Errorf("batching %s @%d: %w", base.Name, depth, err)
			}
			p := BatchingPoint{
				Depth:        depth,
				Mbps:         r.Gbps() * 1000,
				ServerCycles: r.Cycles,
				Crossings:    r.Crossings,
				ByComponent:  r.ByComponent,
			}
			if len(s.Points) > 0 && s.Points[0].Mbps > 0 {
				p.SpeedupPct = (p.Mbps/s.Points[0].Mbps - 1) * 100
			}
			s.Points = append(s.Points, p)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}
