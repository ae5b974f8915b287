package iperf

import (
	"fmt"

	"flexos/internal/libc"
	"flexos/internal/net"
	"flexos/internal/rt"
	"flexos/internal/sched"
)

// MultiServer is the iperf -P server: it accepts Streams parallel
// connections on one listening socket and drains each on its own
// worker thread. Each worker is spawned on the vCPU that serves the
// connection's RSS queue, so the drain work lands on the core the NIC
// steers the flow's interrupts to — the classic multi-queue layout.
type MultiServer struct {
	env   *rt.Env
	libc  *libc.LibC
	stack *net.Stack

	// Port is the listening port.
	Port uint16
	// RecvBuf is the per-connection recv buffer size.
	RecvBuf int
	// Streams is the number of parallel connections (iperf -P).
	Streams int

	// workers holds one drain worker per accepted connection, in accept
	// order; inspect after the scheduler run completes.
	workers []*Server
	errs    []error
}

// NewMultiServer builds a Streams-way parallel iperf server.
func NewMultiServer(env *rt.Env, lc *libc.LibC, st *net.Stack, port uint16, recvBuf, streams int) *MultiServer {
	if streams < 1 {
		streams = 1
	}
	return &MultiServer{env: env, libc: lc, stack: st, Port: port, RecvBuf: recvBuf, Streams: streams}
}

// Run listens, accepts Streams connections, and spawns one drain
// worker per connection. It returns once every connection has been
// accepted and handed off; the workers finish under the scheduler run,
// and Finish gathers their results.
func (ms *MultiServer) Run(s sched.Scheduler, t *sched.Thread) error {
	proto := NewServer(ms.env, ms.libc, ms.stack, ms.Port, ms.RecvBuf)
	var listener *net.Socket
	// The backlog must hold every stream: the clients all connect
	// before the accept loop has drained the first handshake.
	err := proto.call("listen", 2, func() error {
		var err error
		listener, err = ms.libc.Listen(ms.stack, ms.Port, ms.Streams)
		return err
	})
	if err != nil {
		return fmt.Errorf("iperf multi-server: %w", err)
	}
	ms.workers = make([]*Server, ms.Streams)
	ms.errs = make([]error, ms.Streams)
	for i := 0; i < ms.Streams; i++ {
		var conn *net.Socket
		if err := proto.call("accept", 1, func() error {
			var err error
			conn, err = ms.libc.Accept(t, listener)
			return err
		}); err != nil {
			return fmt.Errorf("iperf multi-server accept %d: %w", i, err)
		}
		w := NewServer(ms.env, ms.libc, ms.stack, ms.Port, ms.RecvBuf)
		ms.workers[i] = w
		i, conn := i, conn
		s.Spawn(fmt.Sprintf("iperf-server-%d", i), ms.stack.SpawnCPU(ms.stack.QueueCPUOf(conn)),
			func(th *sched.Thread) {
				ms.errs[i] = w.ServeConn(th, conn)
			})
	}
	return nil
}

// Finish reports the total bytes and recv calls across all workers,
// or the first worker error. Call it after the scheduler run returns.
func (ms *MultiServer) Finish() (bytes, recvs uint64, err error) {
	for i, w := range ms.workers {
		if ms.errs[i] != nil {
			return 0, 0, fmt.Errorf("iperf stream %d: %w", i, ms.errs[i])
		}
		if w == nil {
			return 0, 0, fmt.Errorf("iperf stream %d: never accepted", i)
		}
		bytes += w.BytesReceived
		recvs += w.Recvs
	}
	return bytes, recvs, nil
}

// StreamBytes reports each connection's byte total in accept order
// (tests use it to check RSS spread the streams across queues).
func (ms *MultiServer) StreamBytes() []uint64 {
	out := make([]uint64, len(ms.workers))
	for i, w := range ms.workers {
		out[i] = w.BytesReceived
	}
	return out
}
