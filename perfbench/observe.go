package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime/metrics"
	"sort"
	"time"

	"flexos/internal/clock"
	"flexos/internal/core/build"
)

// bench is the state shared by the rounds of one run.
type bench struct {
	o  options
	tr *tracer
	// pool is the seeded byte pool redis values are cut from.
	pool []byte
}

func newBench(o options) *bench {
	b := &bench{o: o, tr: newTracer(o.trace)}
	r := newRNG(o.seed, 0xb0b)
	b.pool = make([]byte, 64<<10)
	for i := 0; i+8 <= len(b.pool); i += 8 {
		binary.LittleEndian.PutUint64(b.pool[i:], r.next())
	}
	return b
}

// round is one boot-and-measure cycle of a workload.
type round struct {
	setup    time.Duration // host time before the measured phase
	measured time.Duration // host time of the measured phase
	ops      float64       // work units completed in the measured phase
	requests int64         // operations attempted (the report's unit)
	sim      simWindow
	reqHost  []float64   // host microseconds per client request
	host     hostDelta   // Go runtime counters over the measured phase
	model    *sweepModel // design-sweep only
	digest   string
	err      error
}

// fail records the first error of a round.
func (rd *round) fail(err error) {
	if rd.err == nil && err != nil {
		rd.err = err
	}
}

// mark is a snapshot of a world's server-side simulated counters.
type mark struct {
	makespan  uint64
	ledger    map[clock.Component]uint64 // summed over vCPUs
	counters  map[string]uint64          // MetricsSnapshot, summed over labels
	crossings uint64
	switches  uint64
	steals    uint64
	ipis      uint64
}

func markWorld(w *build.World) mark {
	m := mark{
		makespan:  w.Server.Cycles(),
		ledger:    map[clock.Component]uint64{},
		counters:  map[string]uint64{},
		crossings: w.Server.Registry.TotalCrossings(),
		switches:  w.Sched.ContextSwitches(),
		steals:    w.Sched.Steals(),
		ipis:      w.Sched.IPIs(),
	}
	for _, cpu := range w.Server.Clock.CPUs() {
		for c, v := range cpu.ByComponent() {
			m.ledger[c] += v
		}
	}
	for _, c := range w.Server.MetricsSnapshot().Counters {
		m.counters[c.Name] += c.Value
	}
	return m
}

// simWindow accumulates server-side simulated work over measured
// windows (one per world; the design sweep sums many).
type simWindow struct {
	cycles    uint64 // server virtual time
	capacity  uint64 // cycles x vCPUs
	reqCycles []uint64
	ledger    map[clock.Component]uint64
	counters  map[string]uint64
	crossings uint64
	switches  uint64
	steals    uint64
	ipis      uint64
}

// add accumulates the window between two marks of a world with vcpus
// server vCPUs.
func (s *simWindow) add(a, z mark, vcpus int) {
	if s.ledger == nil {
		s.ledger = map[clock.Component]uint64{}
		s.counters = map[string]uint64{}
	}
	s.cycles += z.makespan - a.makespan
	s.capacity += (z.makespan - a.makespan) * uint64(vcpus)
	for c, v := range z.ledger {
		s.ledger[c] += v - a.ledger[c]
	}
	for n, v := range z.counters {
		s.counters[n] += v - a.counters[n]
	}
	s.crossings += z.crossings - a.crossings
	s.switches += z.switches - a.switches
	s.steals += z.steals - a.steals
	s.ipis += z.ipis - a.ipis
}

// hostMark is a host-plane timestamp plus the Go runtime's cumulative
// allocation and GC counters.
type hostMark struct {
	t                 time.Time
	allocB, allocObjs uint64
	gcs               uint64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readHost() hostMark {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return hostMark{t: time.Now(), allocB: s[0].Value.Uint64(), allocObjs: s[1].Value.Uint64(), gcs: s[2].Value.Uint64()}
}

// hostDelta is the host-plane cost of a measured phase.
type hostDelta struct {
	allocB, allocObjs, gcs uint64
}

func (h *hostDelta) add(a, z hostMark) time.Duration {
	h.allocB += z.allocB - a.allocB
	h.allocObjs += z.allocObjs - a.allocObjs
	h.gcs += z.gcs - a.gcs
	return z.t.Sub(a.t)
}

// observe runs the post-run invariants on a world: zero pool buffers
// and refs outstanding on both machines, and conservation of the cycle
// attribution. It feeds the final attribution of both machines into
// the round digest.
func (b *bench) observe(w *build.World, parent int, d hash.Hash) error {
	id := b.tr.begin("metrics.observe", parent, -1)
	defer b.tr.end(id)
	for _, m := range []struct {
		role string
		mach *build.Machine
	}{{"server", w.Server}, {"client", w.Client}} {
		if bufs, refs := m.mach.Pool.Outstanding(), m.mach.Pool.OutstandingRefs(); bufs != 0 || refs != 0 {
			return fmt.Errorf("%s pool leak: %d buffers, %d refs outstanding", m.role, bufs, refs)
		}
		attr := m.mach.Attribution()
		if err := attr.Check(); err != nil {
			return fmt.Errorf("%s attribution: %w", m.role, err)
		}
		for _, r := range attr.Rows {
			fmt.Fprintf(d, "%s attr %d %s %s %d\n", m.role, r.CPU, r.Component, r.Compartment, r.Cycles)
		}
		for _, c := range m.mach.MetricsSnapshot().Counters {
			fmt.Fprintf(d, "%s counter %s %s %d\n", m.role, c.Name, c.Label, c.Value)
		}
	}
	return nil
}

// sealDigest folds the round's simulated window into the digest.
func sealDigest(d hash.Hash, rd *round) string {
	s := &rd.sim
	fmt.Fprintf(d, "ops %v cycles %d capacity %d crossings %d switches %d steals %d ipis %d\n",
		rd.ops, s.cycles, s.capacity, s.crossings, s.switches, s.steals, s.ipis)
	for _, c := range sortedKeys(s.ledger) {
		fmt.Fprintf(d, "ledger %s %d\n", c, s.ledger[c])
	}
	for _, n := range sortedKeys(s.counters) {
		fmt.Fprintf(d, "window %s %d\n", n, s.counters[n])
	}
	var buf [8]byte
	for _, c := range s.reqCycles {
		binary.LittleEndian.PutUint64(buf[:], c)
		d.Write(buf[:])
	}
	return hex.EncodeToString(d.Sum(nil))[:16]
}

func sortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// boot builds a world under a build.NewWorld span.
func (b *bench) boot(cfg build.Config, parent int) (*build.World, error) {
	id := b.tr.begin("build.NewWorld", parent, -1)
	a := readHost()
	w, err := build.NewWorld(cfg)
	z := readHost()
	b.tr.end(id)
	if b.tr.on {
		b.tr.boots = append(b.tr.boots, bootSample{d: z.t.Sub(a.t), allocB: z.allocB - a.allocB})
	}
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", cfg.Name, err)
	}
	return w, nil
}

// rng is splitmix64: a fixed, version-independent stream per seed.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 ^ stream} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
