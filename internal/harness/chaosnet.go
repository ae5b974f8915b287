package harness

import (
	"fmt"

	"flexos/internal/app/retry"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/net"
)

// --- Chaosnet: goodput retention under adversarial link faults --------
//
// The robustness counterpart of Fig. 3: the same iperf transfer over
// the same isolation backends, but across a wire that drops frames at
// a swept rate. A transport with only a fixed retransmission timer
// pays one multi-RTO stall per loss; the hardened stack's adaptive
// RTO, fast retransmit and reassembly queue turn most losses into a
// dup-ACK round trip, so goodput degrades gracefully. Everything runs
// in virtual time on a seeded fault PRNG — the "chaos" replays
// bit-identically.

// ChaosnetPoint is one (loss rate, goodput) sample.
type ChaosnetPoint struct {
	// Loss is the per-frame, per-direction drop probability.
	Loss float64
	// Gbps is the achieved server-side goodput.
	Gbps float64
	// RetentionPct is goodput as a percentage of the same backend's
	// lossless run (100 at loss 0 by construction).
	RetentionPct float64
	// RecoveryCycles is the extra virtual time the lossy transfer took
	// over the lossless one — the total cost of detecting and repairing
	// every loss (0 at loss 0).
	RecoveryCycles uint64
	// Transport repair counters for the run.
	Retransmits     uint64
	FastRetransmits uint64
	OOOQueued       uint64
	// WireDropped is what the fault model actually removed.
	WireDropped uint64
}

// ChaosnetSeries is one backend's loss sweep.
type ChaosnetSeries struct {
	Label   string
	Backend gate.Backend
	Points  []ChaosnetPoint
}

// ChaosnetResult is the loss × backend sweep.
type ChaosnetResult struct {
	Losses []float64
	Series []ChaosnetSeries
}

// chaosnetLosses is the swept per-direction frame-drop rates.
func chaosnetLosses(quick bool) []float64 {
	if quick {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.001, 0.01, 0.05}
}

// chaosnetSeed keeps every run of the sweep on one fault schedule.
const chaosnetSeed = 42

// chaosnetScenario is one iperf transfer over a wire dropping loss of
// the frames in each direction, on the fault schedule seed. The
// client retries its connect with jittered exponential backoff — on a
// lossy link even the handshake can die for real.
func chaosnetScenario(cfg build.Config, totalBytes, recvBuf int, loss float64, seed uint64) Scenario {
	// Merge rather than overwrite: the lossy soak pre-sets reorder and
	// corruption rates on top of the swept drop rate.
	cfg.Link.Drop = loss
	cfg.Link.Seed = seed
	return Scenario{Config: cfg, Workload: Iperf{Bytes: totalBytes, RecvBuf: recvBuf,
		Retry: retry.Policy{Attempts: 5, Seed: seed}}}
}

// repairStats sums both stacks' transport counters: the client (sender)
// side carries the retransmission story for a server-bound transfer.
func repairStats(w *build.World) net.Stats {
	return w.Server.Stack.Stats().Add(w.Client.Stack.Stats())
}

// Chaosnet runs the loss × backend sweep. quick thins it for tests.
func Chaosnet(quick bool) (*ChaosnetResult, error) {
	const (
		total   = 2 << 20
		recvBuf = 16 << 10
	)
	losses := chaosnetLosses(quick)
	configs := nwOnlyImages()
	if quick {
		configs = configs[1:2] // MPK-shared carries the gate
	}
	out := &ChaosnetResult{Losses: losses}
	for _, cfg := range configs {
		s := ChaosnetSeries{Label: cfg.Name, Backend: cfg.Backend}
		var baseGbps float64
		var baseCycles uint64
		for _, loss := range losses {
			r, err := Run(chaosnetScenario(cfg, total, recvBuf, loss, chaosnetSeed))
			if err != nil {
				return nil, fmt.Errorf("chaosnet %s @%.3f: %w", cfg.Name, loss, err)
			}
			stats := repairStats(r.World)
			p := ChaosnetPoint{
				Loss:            loss,
				Gbps:            r.Gbps(),
				Retransmits:     stats.Retransmits,
				FastRetransmits: stats.FastRetransmits,
				OOOQueued:       stats.OOOQueued,
				WireDropped:     r.World.Wire.Dropped,
			}
			if loss == 0 {
				baseGbps, baseCycles = p.Gbps, r.Cycles
			}
			if baseGbps > 0 {
				p.RetentionPct = p.Gbps / baseGbps * 100
			}
			if r.Cycles > baseCycles {
				p.RecoveryCycles = r.Cycles - baseCycles
			}
			s.Points = append(s.Points, p)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}
