package harness

import (
	"fmt"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/metrics"
	"flexos/internal/net"
	"flexos/internal/trace"
)

// Observation bundles one instrumented run's full observability
// output: the cycle-attribution breakdown (from the live clock
// ledgers), the metrics snapshot (live gate/NIC/pool/supervisor
// counters), and the crossing trace for timeline export. The trace is
// bounded and may drop events under load; the attribution and
// snapshot never do — TestAttributionSurvivesSaturatedRing pins that.
type Observation struct {
	Label   string `json:"label"`
	Backend string `json:"backend"`
	VCPUs   int    `json:"vcpus"`
	// Attr conserves capacity exactly: Attr.Check() == nil.
	Attr     *metrics.Attribution `json:"attribution"`
	Snapshot *metrics.Snapshot    `json:"snapshot"`
	// Events is the retained tail of the crossing trace.
	Events []trace.Event `json:"-"`
	// TotalEvents / DroppedEvents report trace-ring pressure: Dropped
	// > 0 means the Chrome timeline is a suffix of the run, while the
	// attribution above still covers all of it.
	TotalEvents   uint64 `json:"trace_events_total"`
	DroppedEvents uint64 `json:"trace_events_dropped"`
}

// observeTraceCap bounds each observed run's crossing trace. Big
// enough for a useful timeline, small enough that a long run saturates
// it — which is fine, because nothing numeric is derived from it.
const observeTraceCap = 8192

// ObserveFor runs one instrumented, traced measurement per
// configuration of the named experiment and returns the observability
// bundles. "smp" observes the SMP sweep's three images at the sweep's
// largest vCPU count; every other experiment name observes the five
// isolation backends on the single-stream iperf workload. Run has
// conservation-checked each observation's attribution.
func ObserveFor(exp string, quick bool) ([]Observation, error) {
	type observed struct {
		label string
		sc    Scenario
	}
	var runs []observed
	if exp == "smp" {
		vcpus := smpVCPUs(quick)
		n := vcpus[len(vcpus)-1]
		for _, base := range nwOnlyImages() {
			runs = append(runs, observed{fmt.Sprintf("%s @%d vCPUs", base.Name, n), smpScenario(base, n)})
		}
	} else {
		// The five backends over the NW-only plan, single stream.
		total := 1 << 20
		if quick {
			total = 256 << 10
		}
		for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
			cfg := nwOnly(b.String()+" NW-only", b, net.KVM)
			runs = append(runs, observed{cfg.Name, Scenario{Config: cfg, Workload: Iperf{Bytes: total, RecvBuf: 16 << 10}}})
		}
	}
	out := make([]Observation, 0, len(runs))
	for _, o := range runs {
		var ring *trace.Ring
		o.sc.Prep = func(w *build.World) { ring = w.Server.EnableTracing(observeTraceCap) }
		r, err := Run(o.sc)
		if err != nil {
			return nil, fmt.Errorf("observe %s: %w", o.label, err)
		}
		out = append(out, Observation{
			Label:         o.label,
			Backend:       o.sc.Config.Backend.String(),
			VCPUs:         r.World.Server.Clock.NCPU(),
			Attr:          r.Attr,
			Snapshot:      r.World.Server.MetricsSnapshot(),
			Events:        ring.Events(),
			TotalEvents:   ring.Total(),
			DroppedEvents: ring.Dropped(),
		})
	}
	return out, nil
}
