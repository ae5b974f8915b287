package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/sh"
)

// --- Autotune: measured ranking of the explorer's Pareto front --------
//
// The explorer ranks the design space with a static cost model; the
// simulator can boot any of those configurations and attribute every
// cycle. Autotune connects the two: every candidate on the static
// Pareto front of every backend is synthesized into a build.Config,
// booted, and measured under the real workload (redis GET for cycles
// per operation, iperf for throughput). The output is a measured
// Pareto front, a model-validation report (predicted vs measured,
// ranked by error), and a calibration fitted from the measurements
// that rewrites the explorer's cost constants — the paper's "toolchain
// picks the configuration" promise, closed with ground truth.
//
// Determinism: the simulator runs entirely in virtual time and every
// candidate writes to its own result slot, so the sweep replays
// bit-identically for any worker count.

// AutotuneBackends are the crossing mechanisms whose Pareto fronts are
// measured — the three real isolation backends of the evaluation.
func AutotuneBackends() []gate.Backend {
	return []gate.Backend{gate.MPKShared, gate.MPKSwitched, gate.VMRPC}
}

// AutotuneOpts sizes the sweep.
type AutotuneOpts struct {
	// Ops is the number of measured redis GET requests per candidate.
	Ops int
	// Payload is the redis value size in bytes.
	Payload int
	// IperfBytes is the iperf transfer size per candidate.
	IperfBytes int
	// RecvBuf is the iperf server receive buffer.
	RecvBuf int
	// Workers sizes the measurement pool; 0 selects GOMAXPROCS.
	Workers int
	// TolerancePct flags candidates whose relative model error exceeds
	// it as mispredicted.
	TolerancePct float64
}

// DefaultAutotuneOpts returns the full-sweep (or -quick) sizing.
func DefaultAutotuneOpts(quick bool) AutotuneOpts {
	o := AutotuneOpts{
		Ops:          1500,
		Payload:      64,
		IperfBytes:   4 << 20,
		RecvBuf:      32 << 10,
		TolerancePct: 25,
	}
	if quick {
		o.Ops = 300
		o.IperfBytes = 512 << 10
	}
	return o
}

// AutotunePoint is one measured Pareto candidate.
type AutotunePoint struct {
	Backend      string   `json:"backend"`
	Libs         []string `json:"libs"`
	Compartments int      `json:"compartments"`
	Hardened     int      `json:"hardened"`
	Security     float64  `json:"security"`
	// Predicted is the static model's cycles/op; Measured the redis GET
	// cycles/op the simulator actually spent; RelErrPct the magnitude
	// of the relative error against the measurement.
	Predicted    float64 `json:"predicted_cycles_op"`
	Measured     float64 `json:"measured_cycles_op"`
	RelErrPct    float64 `json:"rel_err_pct"`
	Mispredicted bool    `json:"mispredicted"`
	// PostPredicted/PostRelErrPct restate the prediction under the
	// calibration fitted from this sweep's measurements.
	PostPredicted float64 `json:"post_predicted_cycles_op"`
	PostRelErrPct float64 `json:"post_rel_err_pct"`
	// Workload metrics of the measured run.
	KReqPerSec float64 `json:"kreq_per_sec"`
	Gbps       float64 `json:"gbps"`
	Crossings  uint64  `json:"crossings"`
	// Attribution columns from the iperf run's full cycle ledger.
	CrossingPct float64 `json:"crossing_pct"`
	ComputePct  float64 `json:"compute_pct"`
	StallPct    float64 `json:"stall_pct"`
	// MemoHit marks a point served by a twin configuration's run (same
	// gate-cost signature) instead of its own boot.
	MemoHit bool `json:"memo_hit"`
	// OnMeasuredFront marks membership of the measured Pareto front
	// across all backends.
	OnMeasuredFront bool `json:"on_measured_front"`

	breakdown explore.CostBreakdown
}

// AutotuneResult is the full measured-autotuning report.
type AutotuneResult struct {
	Backends []string `json:"backends"`
	// Points holds every measured candidate, per backend in front
	// order; ByError lists indices into Points ranked worst-first.
	Points  []AutotunePoint `json:"points"`
	ByError []int           `json:"by_error"`
	// UniqueRuns counts configurations actually booted; MemoHits the
	// candidates served from a twin's measurement.
	UniqueRuns int `json:"unique_runs"`
	MemoHits   int `json:"memo_hits"`
	Workers    int `json:"workers"`
	// Model validation before and after calibration: mean and max
	// relative error, and the number of flagged mispredictions.
	TolerancePct   float64 `json:"tolerance_pct"`
	PreMAEPct      float64 `json:"pre_mae_pct"`
	PreMaxErrPct   float64 `json:"pre_max_err_pct"`
	PostMAEPct     float64 `json:"post_mae_pct"`
	PostMaxErrPct  float64 `json:"post_max_err_pct"`
	Mispredictions int     `json:"mispredictions"`
	// Calibration is the fitted correction; Calibrated the explorer
	// workload it produces (DefaultWorkload itself is never mutated).
	Calibration explore.Calibration `json:"calibration"`
	Calibrated  explore.Workload    `json:"-"`
	// FrontSize is the measured Pareto front's cardinality.
	FrontSize int `json:"front_size"`
}

// gateSignature canonicalizes what determines a candidate's measured
// cost: the compartment partition, the hardened set, and the backend.
// A single-compartment candidate never crosses a gate, so its backend
// is irrelevant to the measurement and is dropped from the key — the
// all-hardened combination, on every backend's front, boots once.
func gateSignature(c *explore.Candidate) string {
	groups := make([]string, 0, len(c.Plan.Compartments))
	for _, comp := range c.Plan.Compartments {
		libs := append([]string(nil), comp...)
		sort.Strings(libs)
		groups = append(groups, strings.Join(libs, ","))
	}
	sort.Strings(groups)
	be := "-"
	if c.SeparatedPairs > 0 {
		be = c.Backend.String()
	}
	return be + "|" + strings.Join(groups, ";")
}

// CandidateConfig turns a design-space candidate (a variant choice
// plus its coloring) into a buildable image configuration: one
// compartment per color, SH profiles for the hardened variants, and
// the candidate's backend.
func CandidateConfig(c *explore.Candidate) (build.Config, error) {
	cfg := build.Config{
		Name:    "candidate",
		Backend: c.Backend,
		Alloc:   build.AllocPerLibrary,
	}
	for i, comp := range c.Plan.Compartments {
		bc := build.Compartment{Name: fmt.Sprintf("comp%d", i)}
		for _, variant := range comp {
			base, _, hardened := strings.Cut(variant, "+")
			if !slices.Contains(build.DefaultLibraries, base) {
				return cfg, fmt.Errorf("harness: candidate library %q is not a default image library", base)
			}
			bc.Libraries = append(bc.Libraries, base)
			if hardened {
				if cfg.SH == nil {
					cfg.SH = make(map[string]sh.Profile)
				}
				cfg.SH[base] = SHProfile
			}
		}
		cfg.Compartments = append(cfg.Compartments, bc)
	}
	return cfg, nil
}

// autotuneRun is one unique boot's measurements, shared by every
// candidate with the same gate-cost signature.
type autotuneRun struct {
	once sync.Once
	err  error
	// m holds the measured columns of the AutotunePoint.
	m AutotunePoint
}

// measure boots one candidate's configuration: redis GET for
// cycles/op, then iperf for throughput and the attribution columns.
func (run *autotuneRun) measure(c *explore.Candidate, opt AutotuneOpts) {
	cfg, err := CandidateConfig(c)
	if err != nil {
		run.err = fmt.Errorf("autotune %s: %w", c.Describe(), err)
		return
	}
	cfg.Name = fmt.Sprintf("autotune-%s-c%d-h%d", c.Backend, c.Plan.NumCompartments(), c.HardenedLibs)
	r, err := Run(Scenario{Config: cfg, Workload: Redis{Op: OpGET, Payload: opt.Payload, Ops: opt.Ops}})
	if err != nil {
		run.err = fmt.Errorf("autotune redis %s: %w", cfg.Name, err)
		return
	}
	run.m.Measured = float64(r.Cycles) / float64(r.Ops)
	run.m.KReqPerSec = r.KReqPerSec()
	run.m.Crossings = r.Crossings
	if opt.IperfBytes <= 0 {
		return
	}
	ir, err := Run(Scenario{Config: cfg, Workload: Iperf{Bytes: opt.IperfBytes, RecvBuf: opt.RecvBuf}})
	if err != nil {
		run.err = fmt.Errorf("autotune iperf %s: %w", cfg.Name, err)
		return
	}
	sum := ir.Attr.Summary()
	run.m.Gbps = ir.Gbps()
	run.m.CrossingPct, run.m.ComputePct, run.m.StallPct = sum.CrossingPct, sum.ComputePct, sum.StallPct
}

// poolSize is the measurement pool's worker count.
func poolSize(opt AutotuneOpts) int {
	if opt.Workers > 0 {
		return opt.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Measure boots and measures every candidate under opt's workload
// sizes: the static model's prediction next to the measured cycles/op
// and kreq/s of redis GET, plus iperf throughput and the attribution
// columns unless opt.IperfBytes is 0. Candidates that share a
// gate-cost signature share one boot (the later ones are memo hits).
// Workers pull candidates from a shared counter and write to
// per-candidate slots, so the points are identical for any worker
// count.
func Measure(cands []*explore.Candidate, opt AutotuneOpts) ([]AutotunePoint, error) {
	w := explore.DefaultWorkload()
	sigs := make([]string, len(cands))
	runs := make(map[string]*autotuneRun, len(cands))
	points := make([]AutotunePoint, len(cands))
	for i, c := range cands {
		sigs[i] = gateSignature(c)
		if runs[sigs[i]] == nil {
			runs[sigs[i]] = &autotuneRun{}
		} else {
			points[i].MemoHit = true
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(poolSize(opt), len(cands)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cands); i = int(next.Add(1)) - 1 {
				c, run := cands[i], runs[sigs[i]]
				// sync.Once collapses twin signatures to one boot however
				// the work interleaves.
				run.once.Do(func() { run.measure(c, opt) })
				p := run.m
				p.MemoHit = points[i].MemoHit
				p.Backend = c.Backend.String()
				for _, l := range c.Libs {
					p.Libs = append(p.Libs, l.VariantName())
				}
				p.Compartments = c.Plan.NumCompartments()
				p.Hardened = c.HardenedLibs
				p.Security = c.Security
				p.Predicted = c.EstCycles
				p.breakdown = explore.Breakdown(c, w)
				points[i] = p
			}
		}()
	}
	wg.Wait()
	for _, sig := range sigs {
		if err := runs[sig].err; err != nil {
			return nil, err
		}
	}
	return points, nil
}

// Autotune explores every backend's design space, measures its static
// Pareto front under the real workload, validates the cost model
// point by point and fits a calibration from the results.
func Autotune(opt AutotuneOpts) (*AutotuneResult, error) {
	w := explore.DefaultWorkload()
	res := &AutotuneResult{Workers: poolSize(opt), TolerancePct: opt.TolerancePct}
	// Static fronts per backend, in deterministic front order.
	var cands []*explore.Candidate
	for _, be := range AutotuneBackends() {
		res.Backends = append(res.Backends, be.String())
		all, err := explore.Explore(spec.DefaultImage(), be, w)
		if err != nil {
			return nil, err
		}
		front := explore.ParetoFront(all)
		cands = append(cands, front...)
		// Anchor: the fully consolidated (single-compartment) candidates,
		// whether or not this backend's front kept them. They never cross
		// a gate, so their signature drops the backend and the three
		// backends' anchors collapse to one boot — the memoization the
		// sweep is built around, and a built-in check that a crossing-free
		// world measures identically whatever the gate mechanism is.
		for _, c := range all {
			if c.SeparatedPairs == 0 && !slices.Contains(front, c) {
				cands = append(cands, c)
			}
		}
	}
	points, err := Measure(cands, opt)
	if err != nil {
		return nil, err
	}

	// Model validation: relative error against the measured truth.
	relErr := func(pred, meas float64) float64 {
		if meas == 0 {
			return 0
		}
		e := 100 * (pred - meas) / meas
		if e < 0 {
			e = -e
		}
		return e
	}
	// Calibrate on unique boots only, so twin candidates (identical
	// signature across backends) don't double-weight the fit.
	var pts []explore.CalPoint
	for i := range points {
		p := &points[i]
		p.RelErrPct = relErr(p.Predicted, p.Measured)
		p.Mispredicted = p.RelErrPct > opt.TolerancePct
		if p.Mispredicted {
			res.Mispredictions++
		}
		if p.MemoHit {
			res.MemoHits++
			continue
		}
		pts = append(pts, explore.CalPoint{Breakdown: p.breakdown, Measured: p.Measured})
	}
	res.UniqueRuns = len(pts)
	res.Calibration = explore.Calibrate(pts)
	res.Calibrated = res.Calibration.Apply(w)
	for i := range points {
		p := &points[i]
		b := p.breakdown
		p.PostPredicted = res.Calibration.Base +
			res.Calibration.CrossScale*b.Crossing + res.Calibration.SHScale*b.SHTax
		p.PostRelErrPct = relErr(p.PostPredicted, p.Measured)
		res.PreMAEPct += p.RelErrPct
		res.PostMAEPct += p.PostRelErrPct
		if p.RelErrPct > res.PreMaxErrPct {
			res.PreMaxErrPct = p.RelErrPct
		}
		if p.PostRelErrPct > res.PostMaxErrPct {
			res.PostMaxErrPct = p.PostRelErrPct
		}
	}
	if len(points) > 0 {
		res.PreMAEPct /= float64(len(points))
		res.PostMAEPct /= float64(len(points))
	}

	// Measured Pareto front across all backends: the skyline in
	// (measured cycles asc, security desc), exact ties kept.
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		if pa.Measured != pb.Measured {
			return pa.Measured < pb.Measured
		}
		return pa.Security > pb.Security
	})
	bestSec, bestSecCost := 0.0, 0.0
	seen := false
	for _, i := range order {
		p := &points[i]
		switch {
		case !seen || p.Security > bestSec:
			seen = true
			bestSec, bestSecCost = p.Security, p.Measured
			p.OnMeasuredFront = true
			res.FrontSize++
		case p.Security == bestSec && p.Measured == bestSecCost:
			p.OnMeasuredFront = true
			res.FrontSize++
		}
	}

	// Validation ranking, worst predictions first (ties by index so the
	// order is fully deterministic).
	res.ByError = make([]int, len(points))
	for i := range res.ByError {
		res.ByError[i] = i
	}
	sort.SliceStable(res.ByError, func(a, b int) bool {
		return points[res.ByError[a]].RelErrPct > points[res.ByError[b]].RelErrPct
	})
	res.Points = points
	return res, nil
}

// FormatAutotune renders the measured-autotuning report.
func FormatAutotune(r *AutotuneResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Autotune: measured Pareto front over %s (%d points, %d boots, %d memo hits, %d workers)\n",
		strings.Join(r.Backends, "/"), len(r.Points), r.UniqueRuns, r.MemoHits, r.Workers)
	fmt.Fprintf(&b, "%-13s %5s %5s %5s %10s %10s %7s %9s %7s %6s %6s %6s %5s %6s\n",
		"backend", "comps", "hard", "sec", "pred(cy)", "meas(cy)", "err%", "kreq/s", "Gb/s",
		"cross%", "comp%", "stall%", "memo", "front")
	for _, p := range r.Points {
		flag := " "
		if p.Mispredicted {
			flag = "!"
		}
		memo, front := "", ""
		if p.MemoHit {
			memo = "hit"
		}
		if p.OnMeasuredFront {
			front = "*"
		}
		fmt.Fprintf(&b, "%-13s %5d %5d %5.1f %10.0f %10.0f %6.1f%s %9.1f %7.3f %5.1f%% %5.1f%% %5.1f%% %5s %6s\n",
			p.Backend, p.Compartments, p.Hardened, p.Security,
			p.Predicted, p.Measured, p.RelErrPct, flag,
			p.KReqPerSec, p.Gbps, p.CrossingPct, p.ComputePct, p.StallPct, memo, front)
	}
	fmt.Fprintf(&b, "model error: pre-calibration MAE %.1f%% (max %.1f%%), post %.1f%% (max %.1f%%), %d/%d beyond %.0f%%\n",
		r.PreMAEPct, r.PreMaxErrPct, r.PostMAEPct, r.PostMaxErrPct,
		r.Mispredictions, len(r.Points), r.TolerancePct)
	fmt.Fprintf(&b, "calibration: base %.0f cy, crossing x%.3f, sh-tax x%.3f (scalar=%v)\n",
		r.Calibration.Base, r.Calibration.CrossScale, r.Calibration.SHScale, r.Calibration.Scalar)
	worst := r.ByError
	if len(worst) > 3 {
		worst = worst[:3]
	}
	for _, i := range worst {
		p := r.Points[i]
		fmt.Fprintf(&b, "  worst: %-13s %d comps %d hard: pred %.0f vs meas %.0f (%.1f%% -> %.1f%% calibrated)\n",
			p.Backend, p.Compartments, p.Hardened, p.Predicted, p.Measured, p.RelErrPct, p.PostRelErrPct)
	}
	return b.String()
}
