package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"time"

	"flexos/internal/app/iperf"
	"flexos/internal/app/redis"
	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/spec"
	"flexos/internal/harness"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// The design-sweep workload: explore the default image on every
// autotune backend, then boot and measure every static-Pareto candidate
// plus the single-compartment anchors, as harness.Autotune does: a
// short redis GET run for cycles/op and a short iperf run. Each
// candidate is booted on its own, without autotune's memoization.
const sweepRecvBuf = 32 << 10

// sweepPayload is the redis value size of a seed: 64 B (autotune's
// sizing) for the default seed, 48..144 B otherwise.
func sweepPayload(seed uint64) int { return 48 + int((seed+15)%97) }

// sweepModel is one sweep's model-versus-measurement result.
type sweepModel struct {
	backends           []string
	predicted          []float64 // static model, cycles/op
	measured           []float64 // redis GET, cycles/op
	maePct, postMAEPct float64
	tau                float64
	frontSize          int
}

// sweepJobs enumerates the candidates in autotune's order: per backend,
// the static Pareto front, then the crossing-free candidates the front
// left out.
func (b *bench) sweepJobs(parent int) ([]*explore.Candidate, int, error) {
	var jobs []*explore.Candidate
	front := 0
	for _, be := range harness.AutotuneBackends() {
		id := b.tr.begin("explore.Explore", parent, -1)
		cands, err := explore.Explore(spec.DefaultImage(), be, explore.DefaultWorkload())
		b.tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		id = b.tr.begin("explore.ParetoFront", parent, -1)
		pf := explore.ParetoFront(cands)
		b.tr.end(id)
		front += len(pf)
		on := make(map[*explore.Candidate]bool, len(pf))
		for _, c := range pf {
			on[c] = true
		}
		jobs = append(jobs, pf...)
		for _, c := range cands {
			if c.SeparatedPairs == 0 && !on[c] {
				jobs = append(jobs, c)
			}
		}
	}
	return jobs, front, nil
}

func (b *bench) sweepRound(root int) *round {
	rd := &round{}
	d := sha256.New()
	ha := readHost()
	start := ha.t
	var setup time.Duration
	jobs, front, err := b.sweepJobs(root)
	setup += time.Since(start)
	if err != nil {
		rd.fail(err)
		return rd
	}
	m := &sweepModel{frontSize: front}
	w := explore.DefaultWorkload()
	var cal []explore.CalPoint
	for i, c := range jobs {
		id := b.tr.begin("harness.CandidateConfig", root, int64(i))
		cfg, err := harness.CandidateConfig(c)
		b.tr.end(id)
		if err != nil {
			rd.fail(err)
			break
		}
		cfg.Name = fmt.Sprintf("sweep-%s-c%d-h%d", c.Backend, c.Plan.NumCompartments(), c.HardenedLibs)
		cyc, boot, err := b.sweepRedis(cfg, rd, root, d)
		setup += boot
		if err != nil {
			rd.fail(fmt.Errorf("candidate %d (%s) redis: %w", i, cfg.Name, err))
			break
		}
		boot, err = b.sweepIperf(cfg, rd, root, d)
		setup += boot
		if err != nil {
			rd.fail(fmt.Errorf("candidate %d (%s) iperf: %w", i, cfg.Name, err))
			break
		}
		m.backends = append(m.backends, c.Backend.String())
		m.predicted = append(m.predicted, c.EstCycles)
		m.measured = append(m.measured, cyc)
		cal = append(cal, explore.CalPoint{Breakdown: explore.Breakdown(c, w), Measured: cyc})
		fmt.Fprintf(d, "candidate %d %s predicted %v measured %v\n", i, cfg.Name, c.EstCycles, cyc)
	}
	rd.requests = int64(len(jobs))
	if rd.err != nil {
		return rd
	}
	id := b.tr.begin("explore.Calibrate", root, -1)
	fit := explore.Calibrate(cal)
	b.tr.end(id)
	// Mean relative error, summed in candidate order exactly as
	// harness.Autotune sums its pre-calibration MAE.
	for i, p := range cal {
		m.maePct += relErrPct(m.predicted[i], p.Measured)
		post := fit.Base + fit.CrossScale*p.Breakdown.Crossing + fit.SHScale*p.Breakdown.SHTax
		m.postMAEPct += relErrPct(post, p.Measured)
	}
	m.maePct /= float64(len(cal))
	m.postMAEPct /= float64(len(cal))
	m.tau = kendallTau(m.predicted, m.measured)
	fmt.Fprintf(d, "model mae %v post %v tau %v front %d\n", m.maePct, m.postMAEPct, m.tau, m.frontSize)
	rd.model = m
	rd.setup = setup
	rd.measured = rd.host.add(ha, readHost())
	rd.ops = float64(len(jobs))
	rd.digest = sealDigest(d, rd)
	return rd
}

func relErrPct(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return math.Abs(100 * (pred - meas) / meas)
}

// sweepRedis measures one candidate's redis GET cost the way the
// harness does: prime 16 keys, then pipelined GETs in batches of
// harness.RedisPipeline, counting server cycles of the GETs only. It
// returns cycles/op and the boot time.
func (b *bench) sweepRedis(cfg build.Config, rd *round, root int, d hash.Hash) (float64, time.Duration, error) {
	const keys = 16
	ops := b.o.size.sweepOps
	cfg.Net.SocketMode = net.TCPIPThreadMode
	h0 := time.Now()
	w, err := b.boot(cfg, root)
	boot := time.Since(h0)
	if err != nil {
		return 0, boot, err
	}
	payload := make([]byte, sweepPayload(b.o.seed))
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	want := append([]byte(nil), payload...)
	if b.o.corruptExpect {
		want[0] ^= 0xff
	}
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, mixPort)
	var srvErr, cliErr error
	var start, end uint64
	var a, z mark
	runSpan := -1
	w.Sched.Spawn("redis-server", w.Server.CPU, func(th *sched.Thread) { srvErr = srv.Run(th) })
	w.Sched.Spawn("redis-client", w.Client.CPU, func(th *sched.Thread) {
		c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack, w.Server.Stack.IP(), mixPort)
		err := func() error {
			if err := c.Connect(th); err != nil {
				return err
			}
			for i := 0; i < keys; i++ {
				if err := c.Set(th, fmt.Sprintf("key:%d", i), payload); err != nil {
					return err
				}
			}
			a = markWorld(w)
			start = w.Server.CPU.Cycles()
			for issued := 0; issued < ops; {
				n := min(harness.RedisPipeline, ops-issued)
				cmds := make([][][]byte, 0, n)
				for i := 0; i < n; i++ {
					cmds = append(cmds, [][]byte{cmdGET, []byte(fmt.Sprintf("key:%d", (issued+i)%keys))})
				}
				span := b.tr.begin("redis.DoPipelined", runSpan, int64(issued))
				s0, t0 := w.Server.Cycles(), time.Now()
				replies, err := c.DoPipelined(th, cmds)
				s1, t1 := w.Server.Cycles(), time.Now()
				b.tr.end(span)
				if err != nil {
					return err
				}
				rd.sim.reqCycles = append(rd.sim.reqCycles, s1-s0)
				rd.reqHost = append(rd.reqHost, float64(t1.Sub(t0).Nanoseconds())/1e3)
				for _, r := range replies {
					if !bulkEquals(r, want) {
						return fmt.Errorf("GET returned %q, not the primed value", r)
					}
				}
				issued += n
			}
			end = w.Server.CPU.Cycles()
			z = markWorld(w)
			return nil
		}()
		if cerr := c.Close(th); err == nil {
			err = cerr
		}
		cliErr = err
	})
	runSpan = b.tr.begin("sched.Run", root, -1)
	err = w.Sched.Run()
	b.tr.end(runSpan)
	for _, e := range []error{err, srvErr, cliErr} {
		if e != nil {
			return 0, boot, e
		}
	}
	if want := uint64(keys + ops); srv.Commands != want {
		return 0, boot, fmt.Errorf("server executed %d commands, client sent %d", srv.Commands, want)
	}
	if err := b.observe(w, root, d); err != nil {
		return 0, boot, err
	}
	rd.sim.add(a, z, w.Server.Clock.NCPU())
	return float64(end-start) / float64(ops), boot, nil
}

// sweepIperf runs one candidate's iperf transfer the way the harness
// does and checks that every byte arrived. It returns the boot time.
func (b *bench) sweepIperf(cfg build.Config, rd *round, root int, d hash.Hash) (time.Duration, error) {
	total := b.o.size.sweepIperfBytes
	cfg.Net.SocketMode = net.TCPIPThreadMode
	h0 := time.Now()
	w, err := b.boot(cfg, root)
	boot := time.Since(h0)
	if err != nil {
		return boot, err
	}
	srv := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, bulkPort, sweepRecvBuf)
	cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack, w.Server.Stack.IP(), bulkPort, total, 32<<10)
	var srvErr, cliErr error
	w.Sched.Spawn("iperf-server", w.Server.CPU, func(th *sched.Thread) { srvErr = srv.Run(th) })
	w.Sched.Spawn("iperf-client", w.Client.CPU, func(th *sched.Thread) { cliErr = cli.Run(th) })
	a := markWorld(w)
	id := b.tr.begin("sched.Run", root, -1)
	err = w.Sched.Run()
	b.tr.end(id)
	z := markWorld(w)
	for _, e := range []error{err, srvErr, cliErr} {
		if e != nil {
			return boot, e
		}
	}
	if cli.BytesSent != uint64(total) || srv.BytesReceived != uint64(total) {
		return boot, fmt.Errorf("client sent %d, server received %d, of %d bytes", cli.BytesSent, srv.BytesReceived, total)
	}
	if err := b.observe(w, root, d); err != nil {
		return boot, err
	}
	rd.sim.add(a, z, w.Server.Clock.NCPU())
	return boot, nil
}

// crossCheck compares the design sweep's first good round with
// harness.Autotune at the same sizing on one goroutine: per-candidate
// predicted and measured cycles/op, and the pre-calibration MAE, must
// match exactly. It runs once per benchmark run, outside the timed
// rounds. Other workloads have nothing to cross-check.
func (b *bench) crossCheck(rounds []*round) error {
	var m *sweepModel
	for _, rd := range rounds {
		if rd.err == nil && rd.model != nil {
			m = rd.model
			break
		}
	}
	if m == nil {
		return nil
	}
	opt := harness.DefaultAutotuneOpts(true)
	opt.Ops = b.o.size.sweepOps
	opt.Payload = sweepPayload(b.o.seed)
	opt.IperfBytes = b.o.size.sweepIperfBytes
	opt.RecvBuf = sweepRecvBuf
	opt.Workers = 1
	res, err := harness.Autotune(opt)
	if err != nil {
		return fmt.Errorf("autotune cross-check: %w", err)
	}
	if len(res.Points) != len(m.measured) {
		return fmt.Errorf("autotune measured %d candidates, the sweep %d", len(res.Points), len(m.measured))
	}
	for i, p := range res.Points {
		if p.Backend != m.backends[i] || p.Predicted != m.predicted[i] || p.Measured != m.measured[i] {
			return fmt.Errorf("candidate %d: autotune %s predicted %v measured %v, sweep %s predicted %v measured %v",
				i, p.Backend, p.Predicted, p.Measured, m.backends[i], m.predicted[i], m.measured[i])
		}
	}
	if res.PreMAEPct != m.maePct {
		return fmt.Errorf("model MAE %v differs from autotune's %v", m.maePct, res.PreMAEPct)
	}
	return nil
}
