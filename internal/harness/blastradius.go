package harness

import (
	"errors"
	"fmt"

	"flexos/internal/app/redis"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// The blast-radius experiment injects a protection fault into a
// compartment mid-workload and reports how far the damage spreads
// under each isolation backend. On the uncompartmentalized baseline
// there is no trap boundary, so the fault unwinds the whole image
// (outcome "fatal"). Isolating backends convert the same fault into a
// typed trap delivered to the caller's domain: with the default abort
// policy the workload sees an error but the image survives
// ("contained"); with `onfault restart` the supervisor tears the
// faulted compartment's in-flight state down and replays the call
// ("recovered", with zero pool leaks); with `onfault degrade` the
// compartment is taken out of service ("degraded").

// Blast outcomes.
const (
	OutcomeFatal     = "fatal"
	OutcomeContained = "contained"
	OutcomeRecovered = "recovered"
	OutcomeDegraded  = "degraded"
	OutcomeNoTrap    = "no-trap" // the injection never fired: a harness bug
)

// BlastRow is one image's behaviour under an injected fault.
type BlastRow struct {
	Workload   string // "iperf-tcp" or "redis-store"
	Image      string // backend label
	Policy     string // configured onfault policy ("-" for the direct image)
	Outcome    string
	Traps      uint64  // traps delivered to the supervisor
	Retries    uint64  // restart replay attempts
	RecoveryNS float64 // virtual time spent in teardown + backoff
	LeakedBufs int     // server pool buffers outstanding after the run
	Detail     string  // the error the workload observed, if any
}

// BlastRadiusResult is the full containment matrix.
type BlastRadiusResult struct {
	Rows []BlastRow
}

// blastScenario describes one image + injection combination.
type blastScenario struct {
	workload string
	image    string
	backend  gate.Backend
	comps    []build.Compartment
	faultIn  string // compartment the policy applies to ("" = direct image)
	policy   fault.Policy
	inject   fault.Injection
}

// lcIsolated is the {libc | rest} model used by the Redis rows: the
// store's bulk value path crosses into the libc compartment on every
// memcpy, which is where the fault is injected.
func lcIsolated() []build.Compartment {
	return []build.Compartment{
		{Name: "lc", Libraries: []string{"libc"}},
		{Name: "core", Libraries: []string{"sched", "alloc", "netstack", "app", "rest"}},
	}
}

// blastScenarios builds the experiment matrix: the TCP stack under
// fault for iperf, the libc/store path under fault for Redis, across
// the direct image and every isolating backend.
func blastScenarios() []blastScenario {
	// The iperf injection fires at the server's 4th netstack recv entry
	// — mid-transfer — and strands two pool buffers, so restart
	// teardown has real work to do.
	iperfInj := func(k fault.Kind) fault.Injection {
		return fault.Injection{Lib: "netstack", Fn: "recv", After: 4, Kind: k, Addr: 0x5000, LeakBufs: 2}
	}
	// The Redis injection fires at the 10th libc memcpy entry: the
	// store's value copies and the stack's buffer moves both route
	// through it, so the fault lands mid-workload.
	redisInj := func(k fault.Kind) fault.Injection {
		return fault.Injection{Lib: "libc", Fn: "memcpy", After: 10, Kind: k, Addr: 0x5000, LeakBufs: 2}
	}
	return []blastScenario{
		{workload: "iperf-tcp", image: "direct", backend: gate.FuncCall,
			comps: build.SingleCompartment(), inject: iperfInj(fault.KindInjected)},
		{workload: "iperf-tcp", image: "mpk-shared", backend: gate.MPKShared,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyAbort,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "mpk-shared", backend: gate.MPKShared,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyDegrade,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "mpk-switched", backend: gate.MPKSwitched,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindMPK)},
		{workload: "iperf-tcp", image: "vm-rpc", backend: gate.VMRPC,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindInjected)},
		{workload: "iperf-tcp", image: "cheri", backend: gate.CHERI,
			comps: build.NWOnly(), faultIn: "nw", policy: fault.PolicyRestart,
			inject: iperfInj(fault.KindCHERI)},
		{workload: "redis-store", image: "direct", backend: gate.FuncCall,
			comps: build.SingleCompartment(), inject: redisInj(fault.KindInjected)},
		{workload: "redis-store", image: "mpk-switched", backend: gate.MPKSwitched,
			comps: lcIsolated(), faultIn: "lc", policy: fault.PolicyRestart,
			inject: redisInj(fault.KindMPK)},
		{workload: "redis-store", image: "vm-rpc", backend: gate.VMRPC,
			comps: lcIsolated(), faultIn: "lc", policy: fault.PolicyRestart,
			inject: redisInj(fault.KindInjected)},
	}
}

// BlastRadius runs the full containment matrix.
func BlastRadius() (*BlastRadiusResult, error) {
	res := &BlastRadiusResult{}
	for _, sc := range blastScenarios() {
		row, err := runBlast(sc)
		if err != nil {
			return nil, fmt.Errorf("harness blastradius %s/%s: %w", sc.workload, sc.image, err)
		}
		res.Rows = append(res.Rows, *row)
	}
	return res, nil
}

func blastConfig(sc blastScenario) build.Config {
	cfg := build.Config{
		Name:         sc.image,
		Compartments: sc.comps,
		Backend:      sc.backend,
		Alloc:        build.AllocPerCompartment,
	}
	if sc.faultIn != "" && sc.policy != fault.PolicyAbort {
		cfg.OnFault = map[string]fault.Policy{sc.faultIn: sc.policy}
	}
	return cfg
}

// blastWorkload is the load each row runs: an iperf transfer, or the
// redis store path.
func blastWorkload(workload string) Workload {
	if workload == "iperf-tcp" {
		return Iperf{Bytes: 256 << 10, RecvBuf: 8 << 10}
	}
	return redisStore{ops: 40, payload: 256}
}

// runBlast runs one row's scenario with the injection armed and
// classifies how far the fault spread.
func runBlast(sc blastScenario) (*BlastRow, error) {
	in := fault.NewInjector()
	in.Arm(sc.inject)
	r, err := Run(Scenario{Config: blastConfig(sc), Workload: blastWorkload(sc.workload),
		Prep: func(w *build.World) { w.Server.InjectFaults(in) }})
	if r == nil {
		return nil, err
	}
	stats := r.World.Server.Sup.Stats()
	row := &BlastRow{
		Workload:   sc.workload,
		Image:      sc.image,
		Policy:     "-",
		Traps:      stats.Traps,
		Retries:    stats.Retries,
		RecoveryNS: clock.Nanoseconds(stats.RecoveryCycles),
		LeakedBufs: r.World.Server.Pool.Outstanding(),
	}
	if sc.faultIn != "" {
		row.Policy = sc.policy.String()
	}
	var crash *sched.ThreadCrash
	switch {
	case in.Fired() == 0:
		row.Outcome = OutcomeNoTrap
	case errors.As(err, &crash):
		row.Outcome = OutcomeFatal
		row.Detail = crash.Error()
	case stats.Degrades > 0:
		row.Outcome = OutcomeDegraded
		row.Detail = firstError(err)
	case err == nil && stats.Recoveries > 0:
		row.Outcome = OutcomeRecovered
	default:
		// Either the workload saw the trap as an error, or the trap was
		// absorbed before it reached the application and the run
		// finished intact.
		row.Outcome = OutcomeContained
		row.Detail = firstError(err)
	}
	return row, nil
}

// firstError is the message of the first error Run joined — the
// server's, when the application failed — or "" for none.
func firstError(err error) string {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		err = j.Unwrap()[0]
	}
	if err == nil {
		return ""
	}
	return err.Error()
}

// redisStore is the blast radius's redis load: one client alternating
// SETs and GETs over eight keys, one request at a time, against the
// single-connection server over the tcpip thread.
type redisStore struct{ ops, payload int }

func (redisStore) sockets() net.SocketMode { return net.TCPIPThreadMode }

func (wl redisStore) start(w *build.World, r *Result) func() ([]error, error) {
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	value := valuePattern(wl.payload)
	var srvErr, cliErr error
	w.Sched.Spawn("redis-server", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(th)
	})
	w.Sched.Spawn("redis-client", w.Client.CPU, func(th *sched.Thread) {
		cliErr = redisSetGet(th, w, wl.ops, value, func(op int) string { return fmt.Sprintf("key:%d", op%8) })
	})
	return func() ([]error, error) {
		r.Ops = srv.Commands
		return []error{srvErr, cliErr}, delivered(r.Ops, wl.ops, "commands executed")
	}
}
