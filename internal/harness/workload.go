package harness

import (
	"bytes"
	"fmt"

	"flexos/internal/app/iperf"
	"flexos/internal/app/redis"
	"flexos/internal/app/retry"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// Iperf is one iperf TCP stream of Bytes into a RecvBuf-sized server
// buffer, over the tcpip thread as Unikraft's lwip port runs it. Retry
// bounds the client's connect loop; the zero value is one attempt.
type Iperf struct {
	Bytes, RecvBuf int
	Retry          retry.Policy
}

func (Iperf) sockets() net.SocketMode { return net.TCPIPThreadMode }

func (wl Iperf) start(w *build.World, r *Result) func() ([]error, error) {
	srv := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, wl.RecvBuf)
	cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
		w.Server.Stack.IP(), 5001, wl.Bytes, 32<<10)
	cli.Retry = wl.Retry
	var srvErr, cliErr error
	w.Sched.Spawn("iperf-server", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(th)
	})
	w.Sched.Spawn("iperf-client", w.Client.CPU, func(th *sched.Thread) {
		cliErr = cli.Run(th)
	})
	return func() ([]error, error) {
		r.Bytes = srv.BytesReceived
		r.Cycles = w.Server.CPU.Cycles()
		r.Crossings = w.Server.Registry.TotalCrossings()
		r.ByComponent = w.Server.CPU.ByComponent()
		return []error{srvErr, cliErr}, delivered(r.Bytes, wl.Bytes, "bytes received")
	}
}

// IperfParallel is iperf -P: Streams connections splitting Bytes
// evenly, spread across the NIC's RSS queues with one drain worker per
// connection on its queue's vCPU. It uses the direct socket
// architecture — per-worker socket calls on the worker's own vCPU, as
// in lwip's raw API — because a single pinned tcpip thread would
// serialize every stream behind one core.
type IperfParallel struct {
	Streams, Bytes, RecvBuf int
}

func (IperfParallel) sockets() net.SocketMode { return net.DirectMode }

func (wl IperfParallel) start(w *build.World, r *Result) func() ([]error, error) {
	streams := max(wl.Streams, 1)
	perStream := wl.Bytes / streams
	srv := iperf.NewMultiServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, wl.RecvBuf, streams)
	// errs holds the accept loop's error, the drain workers' and then
	// each client's.
	errs := make([]error, 2+streams)
	w.Sched.Spawn("iperf-accept", w.Server.CPU, func(th *sched.Thread) {
		errs[0] = srv.Run(w.Sched, th)
	})
	nCli := w.Client.Clock.NCPU()
	for i := 0; i < streams; i++ {
		cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 5001, perStream, 32<<10)
		w.Sched.Spawn(fmt.Sprintf("iperf-client-%d", i), w.Client.Clock.CPU(i%nCli),
			func(th *sched.Thread) {
				if err := cli.Run(th); err != nil {
					errs[2+i] = fmt.Errorf("client %d: %w", i, err)
				}
			})
	}
	return func() ([]error, error) {
		r.Bytes, _, errs[1] = srv.Finish()
		if errs[1] == nil {
			r.StreamBytes = srv.StreamBytes()
		}
		r.Cycles = w.Server.Cycles()
		return errs, delivered(r.Bytes, perStream*streams, "bytes received")
	}
}

// RedisOp selects the measured Redis operation.
type RedisOp string

// Measured operations.
const (
	OpSET RedisOp = "SET"
	OpGET RedisOp = "GET"
)

// RedisPipeline is the pipelining depth of the benchmark client
// (redis-benchmark -P): requests are issued in batches and replies
// stream back through the server's output buffer, which is what pushes
// per-request cost into the range where isolation and hardening
// overheads are visible (the paper reports ~Mreq/s figures).
const RedisPipeline = 8

// redisKeys is the keyspace the pipelined client primes and cycles.
const redisKeys = 16

// Redis is redis-benchmark -P over the tcpip thread: one client primes
// the keyspace, then issues Ops requests of kind Op with Payload-byte
// values, in pipelined batches of Depth. The measured window starts
// after the warmup, while the server is parked between requests, which
// virtual time makes exact.
type Redis struct {
	Op      RedisOp
	Payload int
	Ops     int
	// Depth is the pipelining depth; 0 selects RedisPipeline.
	Depth int
	// Budget and Enforce arm the server's overload mode (see
	// redis.Server). An enforcing server answers shed requests -BUSY,
	// which the client counts instead of failing on.
	Budget  uint64
	Enforce bool
	// DirectSockets makes socket calls directly instead of through the
	// tcpip thread: the socket-architecture ablation.
	DirectSockets bool
}

func (wl Redis) sockets() net.SocketMode {
	if wl.DirectSockets {
		return net.DirectMode
	}
	return net.TCPIPThreadMode
}

func (wl Redis) start(w *build.World, r *Result) func() ([]error, error) {
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	srv.Budget = wl.Budget
	srv.Enforce = wl.Enforce
	depth := wl.Depth
	if depth <= 0 {
		depth = RedisPipeline
	}
	payload := valuePattern(wl.Payload)
	var srvErr, cliErr error
	w.Sched.Spawn("redis-server", w.Server.CPU, func(th *sched.Thread) {
		srvErr = srv.Run(th)
	})
	w.Sched.Spawn("redis-client", w.Client.CPU, func(th *sched.Thread) {
		c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
			w.Server.Stack.IP(), 6379)
		if cliErr = c.Connect(th); cliErr != nil {
			return
		}
		for i := 0; i < redisKeys; i++ {
			if cliErr = c.Set(th, fmt.Sprintf("key:%d", i), payload); cliErr != nil {
				return
			}
		}
		startCycles := w.Server.CPU.Cycles()
		startCross := w.Server.Registry.TotalCrossings()
		startBy := w.Server.CPU.ByComponent()
		startGood, startLate, startShed := srv.Good, srv.Late, srv.Shed
		srv.MaxAge = 0 // exclude the warmup SETs from the age calibration
		issued := 0
		for issued < wl.Ops {
			batch := min(depth, wl.Ops-issued)
			cmds := make([][][]byte, 0, batch)
			for i := 0; i < batch; i++ {
				key := []byte(fmt.Sprintf("key:%d", (issued+i)%redisKeys))
				switch wl.Op {
				case OpSET:
					cmds = append(cmds, [][]byte{[]byte("SET"), key, payload})
				case OpGET:
					cmds = append(cmds, [][]byte{[]byte("GET"), key})
				default:
					cliErr = fmt.Errorf("redis client: unknown op %q", wl.Op)
					return
				}
			}
			replies, err := c.DoPipelined(th, cmds)
			if err != nil {
				cliErr = err
				return
			}
			for _, rep := range replies {
				switch {
				case wl.Enforce && bytes.HasPrefix(rep, []byte("-BUSY")):
					r.Overload.Busy++
				case len(rep) == 0 || rep[0] == '-':
					cliErr = fmt.Errorf("redis client: error reply %q", rep)
					return
				}
			}
			issued += batch
		}
		r.Ops = uint64(issued)
		r.Cycles = w.Server.CPU.Cycles() - startCycles
		r.Crossings = w.Server.Registry.TotalCrossings() - startCross
		r.ByComponent = componentDelta(startBy, w.Server.CPU.ByComponent())
		o := &r.Overload
		o.Good, o.Late, o.Shed = srv.Good-startGood, srv.Late-startLate, srv.Shed-startShed
		o.MaxAge = srv.MaxAge
		cliErr = c.Close(th)
	})
	return func() ([]error, error) {
		return []error{srvErr, cliErr}, delivered(r.Ops, wl.Ops, "requests answered")
	}
}

// RedisConns is Conns redis clients against one server, each issuing
// Ops alternating SET/GET commands on its own key. Like IperfParallel
// it uses the direct socket architecture, and each connection's serve
// worker runs on the vCPU of the RSS queue the NIC steers the flow to,
// so independent connections execute commands on different cores
// against the shared store.
type RedisConns struct {
	Conns, Ops, Payload int
}

func (RedisConns) sockets() net.SocketMode { return net.DirectMode }

func (wl RedisConns) start(w *build.World, r *Result) func() ([]error, error) {
	conns := max(wl.Conns, 1)
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 6379)
	payload := valuePattern(wl.Payload)
	// errs holds the accept loop's error, each serve worker's and then
	// each client's.
	errs := make([]error, 1+2*conns)
	w.Sched.Spawn("redis-accept", w.Server.CPU, func(th *sched.Thread) {
		// The backlog must hold every connection: the clients all
		// connect before the accept loop drains the first handshake.
		var listener *net.Socket
		if errs[0] = w.Server.Env("app").CallFn("libc", "listen", 2, func() error {
			var err error
			listener, err = w.Server.LibC.Listen(w.Server.Stack, 6379, conns)
			return err
		}); errs[0] != nil {
			return
		}
		for i := 0; i < conns; i++ {
			conn, err := srv.Accept(th, listener)
			if err != nil {
				errs[0] = err
				return
			}
			w.Sched.Spawn(fmt.Sprintf("redis-server-%d", i),
				w.Server.Stack.SpawnCPU(w.Server.Stack.QueueCPUOf(conn)),
				func(th *sched.Thread) {
					if err := srv.ServeConn(th, conn); err != nil {
						errs[1+i] = fmt.Errorf("server %d: %w", i, err)
					}
				})
		}
	})
	nCli := w.Client.Clock.NCPU()
	for i := 0; i < conns; i++ {
		w.Sched.Spawn(fmt.Sprintf("redis-client-%d", i), w.Client.Clock.CPU(i%nCli),
			func(th *sched.Thread) {
				key := fmt.Sprintf("key:%d", i)
				if err := redisSetGet(th, w, wl.Ops, payload, func(int) string { return key }); err != nil {
					errs[1+conns+i] = fmt.Errorf("client %d: %w", i, err)
				}
			})
	}
	return func() ([]error, error) {
		r.Ops = srv.Commands
		r.Cycles = w.Server.Cycles()
		return errs, delivered(r.Ops, conns*wl.Ops, "commands executed")
	}
}

// redisSetGet connects one client and issues ops commands alternating
// SET and GET, command op on key(op), then closes the connection.
func redisSetGet(th *sched.Thread, w *build.World, ops int, payload []byte, key func(op int) string) error {
	c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
		w.Server.Stack.IP(), 6379)
	if err := c.Connect(th); err != nil {
		return err
	}
	for op := 0; op < ops; op++ {
		var err error
		if op%2 == 0 {
			err = c.Set(th, key(op), payload)
		} else {
			_, _, err = c.Get(th, key(op))
		}
		if err != nil {
			return err
		}
	}
	return c.Close(th)
}

// valuePattern is an n-byte value cycling through the alphabet.
func valuePattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

// componentDelta subtracts two per-component cycle snapshots, keeping
// only the components that advanced during the window.
func componentDelta(start, end map[clock.Component]uint64) map[clock.Component]uint64 {
	out := make(map[clock.Component]uint64, len(end))
	for comp, v := range end {
		if d := v - start[comp]; d > 0 {
			out[comp] = d
		}
	}
	return out
}
