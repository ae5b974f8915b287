package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"flexos/internal/app/redis"
	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/net"
	"flexos/internal/sched"
)

// The redis-mix workload: a 2-vCPU server image with MPK-switched gates,
// the NW | Sched | Rest compartments and per-compartment allocators.
// Two closed-loop connections, one per vCPU via RSS, each send
// pipelined batches of a seeded GET/SET mix over their own keyspace.
const (
	mixConns    = 2
	mixPipeline = 8
	mixGetPct   = 80
	mixPort     = 6379
)

// mixSizes are the SET value sizes, in the proportions 3:3:2. 1536 B
// spans two TCP segments and a batch of eight stays under the client's
// 16 KiB buffer. With a quarter of the values large, the median batch
// sits inside a latency class (two large values) instead of on the edge
// between two, so the median does not jump from seed to seed.
var mixSizes = [...]int{64, 64, 64, 256, 256, 256, 1536, 1536}

// oversizeValue exceeds the client buffer on its own (fault hook).
const oversizeValue = 17 << 10

var (
	cmdGET  = []byte("GET")
	cmdSET  = []byte("SET")
	replyOK = []byte("+OK\r\n")
)

// valueID names one SET value: its version on the connection and its
// size. The bytes are derived from it, so expected values cost no
// memory beyond the id.
type valueID struct {
	ver  uint64
	size int
}

// value writes the bytes of value id of key on connection conn into
// dst: an 8-byte stamp, then a seeded slice of the byte pool.
func (b *bench) value(dst []byte, conn, key int, id valueID) []byte {
	dst = dst[:id.size]
	stamp := uint64(conn)<<56 | uint64(key)<<32 | id.ver
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], stamp)
	n := copy(dst, s[:])
	h := newRNG(b.o.seed, stamp).next()
	off := int(h % uint64(len(b.pool)-id.size))
	copy(dst[n:], b.pool[off:])
	return dst
}

// bulkEquals reports whether reply is the RESP bulk string of want.
func bulkEquals(reply, want []byte) bool {
	var hdr [24]byte
	h := append(hdr[:0], '$')
	h = strconv.AppendInt(h, int64(len(want)), 10)
	h = append(h, '\r', '\n')
	return len(reply) == len(h)+len(want)+2 &&
		bytes.Equal(reply[:len(h)], h) &&
		bytes.Equal(reply[len(h):len(h)+len(want)], want) &&
		string(reply[len(h)+len(want):]) == "\r\n"
}

// mixClient is one connection's load generator and reply checker.
type mixClient struct {
	b   *bench
	id  int
	rng *rng
	// deck is the connection's command sequence for a round: exactly
	// mixGetPct% GETs (0) and SETs split evenly over the value sizes
	// (1 + size index), in seeded order.
	deck   []uint8
	keys   [][]byte
	expect []valueID
	ver    uint64
	// scratch holds the SET values of one batch; cmp the expected value
	// of the reply being checked.
	scratch [mixPipeline][]byte
	cmp     []byte
	checked bool // the corrupt-expectation hook has fired
}

func (b *bench) newMixClient(id int) *mixClient {
	c := &mixClient{b: b, id: id, rng: newRNG(b.o.seed, uint64(id)+1), cmp: make([]byte, oversizeValue)}
	for k := 0; k < b.o.size.mixKeys; k++ {
		c.keys = append(c.keys, []byte(fmt.Sprintf("c%d:key:%d", id, k)))
	}
	c.expect = make([]valueID, len(c.keys))
	n := b.o.size.mixBatches * mixPipeline
	gets := n * mixGetPct / 100
	for i := 0; i < n; i++ {
		kind := uint8(0)
		if i >= gets {
			kind = uint8(1 + (i-gets)%len(mixSizes))
		}
		c.deck = append(c.deck, kind)
	}
	for i := len(c.deck) - 1; i > 0; i-- {
		j := c.rng.intn(i + 1)
		c.deck[i], c.deck[j] = c.deck[j], c.deck[i]
	}
	for i := range c.scratch {
		c.scratch[i] = make([]byte, oversizeValue)
	}
	return c
}

func (c *mixClient) newValue(size int) valueID {
	c.ver++
	return valueID{ver: c.ver, size: size}
}

// pending is what one command of a batch must answer.
type pending struct {
	get bool
	key int
	id  valueID
}

// batch draws the next pipelined batch. A GET expects the value of the
// latest SET before it, including one earlier in the same batch.
func (c *mixClient) batch(cmds [][][]byte, pend []pending, oversize bool) ([][][]byte, []pending) {
	cmds, pend = cmds[:0], pend[:0]
	for j := 0; j < mixPipeline; j++ {
		k := c.rng.intn(len(c.keys))
		kind := c.deck[0]
		c.deck = c.deck[1:]
		if oversize && j == 0 {
			kind = 1
		}
		if kind == 0 {
			cmds = append(cmds, [][]byte{cmdGET, c.keys[k]})
			pend = append(pend, pending{get: true, key: k, id: c.expect[k]})
			continue
		}
		size := mixSizes[kind-1]
		if oversize && j == 0 {
			size = oversizeValue
		}
		id := c.newValue(size)
		cmds = append(cmds, [][]byte{cmdSET, c.keys[k], c.b.value(c.scratch[j], c.id, k, id)})
		pend = append(pend, pending{key: k, id: id})
		c.expect[k] = id
	}
	return cmds, pend
}

// prime SETs every key of the keyspace once, in pipelined batches, so
// every GET of the measured phase has a value to return.
func (c *mixClient) prime(th *sched.Thread, cl *redis.Client) error {
	var cmds [][][]byte
	var pend []pending
	for k := range c.keys {
		id := c.newValue(mixSizes[c.rng.intn(len(mixSizes))])
		j := len(cmds)
		cmds = append(cmds, [][]byte{cmdSET, c.keys[k], c.b.value(c.scratch[j], c.id, k, id)})
		pend = append(pend, pending{key: k, id: id})
		c.expect[k] = id
		if len(cmds) == mixPipeline || k == len(c.keys)-1 {
			replies, err := cl.DoPipelined(th, cmds)
			if err != nil {
				return err
			}
			if err := c.check(replies, pend); err != nil {
				return err
			}
			cmds, pend = cmds[:0], pend[:0]
		}
	}
	return nil
}

// check verifies a batch's replies against the expected values.
func (c *mixClient) check(replies [][]byte, pend []pending) error {
	if len(replies) != len(pend) {
		return fmt.Errorf("connection %d: %d replies for %d commands", c.id, len(replies), len(pend))
	}
	for j, p := range pend {
		if !p.get {
			if !bytes.Equal(replies[j], replyOK) {
				return fmt.Errorf("connection %d: SET %s replied %q", c.id, c.keys[p.key], replies[j])
			}
			continue
		}
		want := c.b.value(c.cmp, c.id, p.key, p.id)
		if c.b.o.corruptExpect && !c.checked {
			c.checked = true
			want[len(want)-1] ^= 0xff
		}
		if !bulkEquals(replies[j], want) {
			return fmt.Errorf("connection %d: GET %s returned a value other than version %d (%d B)",
				c.id, c.keys[p.key], p.id.ver, p.id.size)
		}
	}
	return nil
}

// barrier parks arriving threads until n have arrived; the last one runs
// release and wakes the others.
type barrier struct {
	n       int
	parked  []*sched.Thread
	release func()
}

func (b *barrier) arrive(th *sched.Thread) {
	b.n--
	if b.n > 0 {
		b.parked = append(b.parked, th)
		th.Park()
		return
	}
	b.release()
	for _, t := range b.parked {
		t.Wake()
	}
}

func (b *bench) redisMixRound(root int) *round {
	rd := &round{}
	d := sha256.New()
	start := time.Now()
	cfg := build.Config{
		Name:         "redis-mix",
		Backend:      gate.MPKSwitched,
		Compartments: build.NWSchedRest(),
		Alloc:        build.AllocPerCompartment,
		Smp:          2,
	}
	// Per-worker socket calls on the worker's own vCPU: a single pinned
	// tcpip thread would serialize both connections behind one core.
	cfg.Net.SocketMode = net.DirectMode
	w, err := b.boot(cfg, root)
	if err != nil {
		rd.fail(err)
		return rd
	}
	srv := redis.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, mixPort)
	var acceptErr error
	srvErrs := make([]error, mixConns)
	queues := make([]int, mixConns)
	w.Sched.Spawn("redis-accept", w.Server.CPU, func(th *sched.Thread) {
		var listener *net.Socket
		if acceptErr = w.Server.Env("app").CallFn("libc", "listen", 2, func() error {
			var err error
			listener, err = w.Server.LibC.Listen(w.Server.Stack, mixPort, mixConns)
			return err
		}); acceptErr != nil {
			return
		}
		for i := 0; i < mixConns; i++ {
			conn, err := srv.Accept(th, listener)
			if err != nil {
				acceptErr = err
				return
			}
			queues[i] = w.Server.Stack.QueueCPUOf(conn)
			w.Sched.Spawn(fmt.Sprintf("redis-server-%d", i), w.Server.Stack.SpawnCPU(queues[i]),
				func(th *sched.Thread) { srvErrs[i] = srv.ServeConn(th, conn) })
		}
	})

	// The measured window opens once both connections are primed and
	// closes once both have finished their batches: barriers in virtual
	// time, so neither connection's priming or close falls inside it.
	var (
		a, z   mark
		ha, hz hostMark
	)
	opened := &barrier{n: mixConns, release: func() { a, ha = markWorld(w), readHost() }}
	closed := &barrier{n: mixConns, release: func() { z, hz = markWorld(w), readHost() }}
	runSpan := -1
	cliErrs := make([]error, mixConns)
	reqCycles := make([][]uint64, mixConns)
	reqHost := make([][]float64, mixConns)
	nCli := w.Client.Clock.NCPU()
	for i := 0; i < mixConns; i++ {
		mc := b.newMixClient(i)
		w.Sched.Spawn(fmt.Sprintf("redis-client-%d", i), w.Client.Clock.CPU(i%nCli), func(th *sched.Thread) {
			c := redis.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack, w.Server.Stack.IP(), mixPort)
			arrived := false
			err := func() error {
				if err := c.Connect(th); err != nil {
					return err
				}
				if err := mc.prime(th, c); err != nil {
					return err
				}
				arrived = true
				opened.arrive(th)
				var cmds [][][]byte
				var pend []pending
				for bt := 0; bt < b.o.size.mixBatches; bt++ {
					cmds, pend = mc.batch(cmds, pend, b.o.oversizeBatch && bt == 0)
					span := b.tr.begin("redis.DoPipelined", runSpan, int64(i)<<32|int64(bt))
					s0, h0 := w.Server.Cycles(), time.Now()
					replies, err := c.DoPipelined(th, cmds)
					s1, h1 := w.Server.Cycles(), time.Now()
					b.tr.end(span)
					if err != nil {
						return err
					}
					reqCycles[i] = append(reqCycles[i], s1-s0)
					reqHost[i] = append(reqHost[i], float64(h1.Sub(h0).Nanoseconds())/1e3)
					if err := mc.check(replies, pend); err != nil {
						return err
					}
				}
				return nil
			}()
			if !arrived {
				opened.arrive(th)
			}
			closed.arrive(th)
			// Close on every path: a client that stops on an error must
			// release the server, or the run ends in a scheduler deadlock
			// instead of a counted failure.
			if cerr := c.Close(th); err == nil {
				err = cerr
			}
			cliErrs[i] = err
		})
	}
	runSpan = b.tr.begin("sched.Run", root, -1)
	err = w.Sched.Run()
	b.tr.end(runSpan)
	rd.requests = int64(mixConns * b.o.size.mixBatches * mixPipeline)
	rd.fail(err)
	rd.fail(acceptErr)
	for i := 0; i < mixConns; i++ {
		rd.fail(srvErrs[i])
		rd.fail(cliErrs[i])
	}
	if rd.err != nil {
		return rd
	}
	if queues[0] == queues[1] {
		rd.fail(fmt.Errorf("RSS steered both connections to vCPU %d", queues[0]))
	}
	primed := uint64(mixConns * b.o.size.mixKeys)
	if want := primed + uint64(rd.requests); srv.Commands != want {
		rd.fail(fmt.Errorf("server executed %d commands, clients sent %d", srv.Commands, want))
	}
	rd.fail(b.observe(w, root, d))
	rd.setup = ha.t.Sub(start)
	rd.measured = rd.host.add(ha, hz)
	rd.ops = float64(rd.requests)
	rd.sim.add(a, z, w.Server.Clock.NCPU())
	for i := 0; i < mixConns; i++ {
		rd.sim.reqCycles = append(rd.sim.reqCycles, reqCycles[i]...)
		rd.reqHost = append(rd.reqHost, reqHost[i]...)
	}
	rd.digest = sealDigest(d, rd)
	return rd
}
