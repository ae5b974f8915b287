package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"flexos/internal/app/iperf"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/mem"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// The iperf-bulk workload: a 1-vCPU image with MPK-shared gates, the
// NW-only compartments and the shared zero-copy data path. One long
// TCP stream into a 32 KiB receive buffer. The client is the benchmark's
// own: iperf's send loop, with seeded write sizes and each write timed.
const (
	bulkPort     = 5001
	bulkRecvBuf  = 32 << 10
	bulkMinWrite = 16 << 10
	bulkMaxWrite = 48 << 10
)

func (b *bench) iperfBulkRound(root int) *round {
	rd := &round{}
	d := sha256.New()
	start := time.Now()
	cfg := build.Config{
		Name:         "iperf-bulk",
		Backend:      gate.MPKShared,
		Compartments: build.NWOnly(),
		Alloc:        build.AllocPerCompartment,
		DataPath:     net.DataPathShared,
	}
	cfg.Net.SocketMode = net.TCPIPThreadMode
	w, err := b.boot(cfg, root)
	if err != nil {
		rd.fail(err)
		return rd
	}
	total := b.o.size.iperfBytes
	srv := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, bulkPort, bulkRecvBuf)
	var srvErr, cliErr error
	var sent int
	runSpan := -1
	w.Sched.Spawn("iperf-server", w.Server.CPU, func(th *sched.Thread) { srvErr = srv.Run(th) })
	w.Sched.Spawn("iperf-client", w.Client.CPU, func(th *sched.Thread) {
		env, lc := w.Client.Env("app"), w.Client.LibC
		var conn *net.Socket
		cliErr = func() error {
			if err := env.CallFn("libc", "connect", 3, func() error {
				var err error
				conn, err = lc.Connect(th, w.Client.Stack, w.Server.Stack.IP(), bulkPort)
				return err
			}); err != nil {
				return fmt.Errorf("connect: %w", err)
			}
			var buf mem.BufRef
			if err := env.CallFn("libc", "malloc", 1, func() error {
				var err error
				buf, err = lc.BufAlloc(bulkMaxWrite)
				return err
			}); err != nil {
				return err
			}
			defer func() {
				_ = env.CallFn("libc", "free", 1, func() error { return lc.BufFree(buf) })
			}()
			if err := env.CallFn("libc", "memset", 3, func() error {
				return lc.Memset(buf.Addr, 'x', bulkMaxWrite)
			}); err != nil {
				return err
			}
			sizes := writeSizes(b.o.seed, total)
			for n := 0; sent < total; n++ {
				chunk := min(sizes[n%len(sizes)], total-sent)
				span := b.tr.begin("libc.SendBuf", runSpan, int64(n))
				s0, h0 := w.Server.Cycles(), time.Now()
				var wrote int
				err := env.CallFn("libc", "send", 3, func() error {
					var err error
					wrote, err = lc.SendBuf(th, conn, buf, chunk)
					return err
				})
				s1, h1 := w.Server.Cycles(), time.Now()
				b.tr.end(span)
				if err != nil {
					return fmt.Errorf("send: %w", err)
				}
				sent += wrote
				rd.sim.reqCycles = append(rd.sim.reqCycles, s1-s0)
				rd.reqHost = append(rd.reqHost, float64(h1.Sub(h0).Nanoseconds())/1e3)
			}
			return nil
		}()
		// Close on every path, so a failing client ends the server's
		// drain instead of leaving it blocked.
		if conn != nil {
			if err := env.CallFn("libc", "close", 1, func() error { return lc.Close(th, conn) }); cliErr == nil {
				cliErr = err
			}
		}
	})
	a, ha := markWorld(w), readHost()
	runSpan = b.tr.begin("sched.Run", root, -1)
	err = w.Sched.Run()
	b.tr.end(runSpan)
	z, hz := markWorld(w), readHost()
	rd.requests = int64(len(rd.sim.reqCycles))
	if rd.requests == 0 {
		rd.requests = 1
	}
	rd.fail(err)
	rd.fail(srvErr)
	rd.fail(cliErr)
	if rd.err != nil {
		return rd
	}
	want := total
	if b.o.corruptExpect {
		want++
	}
	if sent != want || srv.BytesReceived != uint64(want) {
		rd.fail(fmt.Errorf("iperf: client sent %d, server received %d, of %d bytes", sent, srv.BytesReceived, want))
	}
	rd.fail(b.observe(w, root, d))
	rd.setup = ha.t.Sub(start)
	rd.measured = rd.host.add(ha, hz)
	rd.ops = float64(total) / (1 << 20)
	rd.sim.add(a, z, w.Server.Clock.NCPU())
	rd.digest = sealDigest(d, rd)
	return rd
}

// writeSizes draws the client's write sizes for a stream of total bytes:
// one size from each of total/32 KiB equal strata of
// [bulkMinWrite, bulkMaxWrite], in seeded order. Stratifying keeps the
// size distribution, and so the latency quantiles, nearly the same from
// seed to seed.
func writeSizes(seed uint64, total int) []int {
	r := newRNG(seed, 0x1f)
	n := max(1, total/((bulkMinWrite+bulkMaxWrite)/2))
	span := bulkMaxWrite - bulkMinWrite
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = bulkMinWrite + (i*span+r.intn(span))/n
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}
