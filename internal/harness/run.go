// Package harness regenerates every table and figure of the paper's
// evaluation (§4): Fig. 3 (iperf throughput across isolation
// mechanisms), Table 1 (iperf under per-component software hardening),
// Fig. 4 (Redis under SH and the verified scheduler), Fig. 5 (Redis
// under MPK compartmentalization models) and the context-switch
// latency microbenchmark.
//
// All measurements are taken in virtual time on the server machine —
// deterministic, hardware independent, and calibrated so the *shape*
// of every paper result (who wins, by roughly what factor, where the
// crossovers fall) reproduces. Absolute Gb/s differ from the paper's
// Xeon testbed; EXPERIMENTS.md records both.
//
// Every experiment is a loop over Scenarios, and Run is the one place
// that boots a world, drives a workload on it and checks the run's
// invariants.
package harness

import (
	"errors"
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/metrics"
	"flexos/internal/net"
)

// Scenario is one measured run: the image to boot, the workload to
// drive against it, and an optional hook on the booted world.
type Scenario struct {
	Config   build.Config
	Workload Workload
	// Prep runs on the booted world before the workload starts: a
	// crossing trace, a fault injector, a gate observer.
	Prep func(*build.World)
}

// Workload is a load generator driven against the server machine. Its
// methods are unexported: the harness's workload types (Iperf,
// IperfParallel, Redis, RedisConns) are the implementations.
type Workload interface {
	// sockets is the socket architecture the image is built with.
	sockets() net.SocketMode
	// start spawns the workload's threads, which record into r. Run
	// calls the returned finish once the scheduler drains: it fills r
	// from the finished applications and returns their errors, server
	// side first, and an error if any byte or request went missing.
	start(w *build.World, r *Result) (finish func() (errs []error, incomplete error))
}

// Result is one run's measurement.
type Result struct {
	// World is the finished world, for anything the fields below do
	// not carry: machines, wire, scheduler and supervisor counters.
	World *build.World
	// Attr is the server machine's cycle attribution over the whole
	// run, checked by Run to conserve capacity (nil if the run failed).
	Attr *metrics.Attribution
	// Cycles is the server time throughput divides by: the boot vCPU's
	// cycles, or the machine's makespan for IperfParallel and
	// RedisConns. Crossings and ByComponent (the boot vCPU's ledger)
	// cover the same span; the multi-connection workloads leave them
	// empty. Redis measures over its requests only, excluding
	// connection setup and warmup; the other workloads over the whole
	// run.
	Cycles      uint64
	Crossings   uint64
	ByComponent map[clock.Component]uint64
	// Bytes is the payload the server received; Ops the requests it
	// answered.
	Bytes, Ops uint64
	// StreamBytes is each IperfParallel connection's payload, in
	// accept order.
	StreamBytes []uint64
	// Overload is the accounting of a server with a service budget,
	// filled by Redis and the overload experiment's iperf pairs and
	// read only by that experiment: work served
	// within it, served past it and shed (requests for redis; bytes,
	// and shed drains, for iperf), the -BUSY replies the client saw,
	// the worst command age and the number of iperf drains.
	Overload struct {
		Good, Late, Shed    uint64
		Busy, MaxAge, Recvs uint64
	}
}

// Gbps is the received payload over Cycles.
func (r *Result) Gbps() float64 { return clock.GbpsFor(r.Bytes, r.Cycles) }

// KReqPerSec is Ops over Cycles, in thousands per second.
func (r *Result) KReqPerSec() float64 { return clock.OpsPerSec(r.Ops, r.Cycles) / 1e3 }

// Run boots sc.Config with the workload's socket architecture, drives
// the workload to completion and enforces the run invariants: no
// application or scheduler error (application errors first, so a
// deadlock reports its cause), every byte or request delivered, zero
// pool leaks on both machines, and cycle attribution that conserves
// the server's capacity. A run that fails after boot still returns
// its Result, for callers that classify failures.
func Run(sc Scenario) (*Result, error) {
	if sc.Workload == nil {
		return nil, errors.New("harness: scenario has no workload")
	}
	cfg := sc.Config
	cfg.Net.SocketMode = sc.Workload.sockets()
	w, err := build.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	if sc.Prep != nil {
		sc.Prep(w)
	}
	r := &Result{World: w}
	finish := sc.Workload.start(w, r)
	schedErr := w.Sched.Run()
	errs, incomplete := finish()
	if err := errors.Join(append(errs, schedErr)...); err != nil {
		return r, err
	}
	if incomplete != nil {
		return r, incomplete
	}
	if err := checkPoolLeaks(w); err != nil {
		return r, err
	}
	r.Attr = w.Server.Attribution()
	return r, r.Attr.Check()
}

// checkPoolLeaks enforces the shared pool's zero-leak invariant on
// both machines after a run: every buffer handed out by BufAlloc or
// the stack's rx path must have been released, with no pins left.
func checkPoolLeaks(w *build.World) error {
	for _, m := range []*build.Machine{w.Server, w.Client} {
		if bufs, refs := m.Pool.Outstanding(), m.Pool.OutstandingRefs(); bufs != 0 || refs != 0 {
			role := "server"
			if m == w.Client {
				role = "client"
			}
			return fmt.Errorf("harness: %s pool leak: %d buffers, %d refs outstanding", role, bufs, refs)
		}
	}
	return nil
}

// shortRun is a run whose applications all finished cleanly but
// delivered got of want units (say, "bytes received").
type shortRun struct {
	got   uint64
	want  int
	units string
}

func (e *shortRun) Error() string {
	return fmt.Sprintf("harness: %d of %d %s", e.got, e.want, e.units)
}

// delivered reports a short transfer or request count as a *shortRun.
func delivered(got uint64, want int, units string) error {
	if got != uint64(want) {
		return &shortRun{got, want, units}
	}
	return nil
}
