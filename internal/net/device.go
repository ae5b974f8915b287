package net

import (
	"flexos/internal/clock"
	"flexos/internal/sched"
)

// Platform selects the virtualization platform the image runs on,
// which determines the fixed per-packet driver/plat cost. The paper's
// Fig. 3 shows the Xen port of Unikraft paying substantially more per
// packet than KVM ("Unikraft not being optimized for this
// hypervisor").
type Platform int

// Supported platforms.
const (
	KVM Platform = iota
	Xen
)

// String implements fmt.Stringer.
func (p Platform) String() string {
	if p == Xen {
		return "xen"
	}
	return "kvm"
}

// perPacketPlatformCycles is the driver+platform fixed cost charged to
// the "rest of the system" component for each packet sent or received.
func perPacketPlatformCycles(p Platform) uint64 {
	const kvmCost = 800
	if p == Xen {
		return kvmCost + clock.CostXenPacketExtra
	}
	return kvmCost
}

// NIC is one end of a virtual link. Delivery is synchronous: Transmit
// runs the peer stack's input path inline, charging the peer machine's
// CPU — the discrete-event analogue of the receive interrupt.
type NIC struct {
	stack *Stack
	peer  *NIC
	wire  *Wire
	qTx   []uint64 // per-queue tx frame counts
	qRx   []uint64 // per-queue rx frame counts
	// Coalescing counters for the observability layer: frames charged
	// at the coalesced descriptor-ring cost rather than the full
	// per-packet platform cost, per queue and direction, plus the
	// doorbell and NAPI-poll counts that paid the full cost once per
	// batch. Live counters, never dropped — the attribution path reads
	// these, not the bounded trace ring.
	qCoalTx   []uint64
	qCoalRx   []uint64
	doorbells uint64
	rxPolls   uint64
}

// QueueTx reports frames transmitted on ring q.
func (n *NIC) QueueTx(q int) uint64 {
	if q < 0 || q >= len(n.qTx) {
		return 0
	}
	return n.qTx[q]
}

// QueueRx reports frames received on ring q.
func (n *NIC) QueueRx(q int) uint64 {
	if q < 0 || q >= len(n.qRx) {
		return 0
	}
	return n.qRx[q]
}

// QueueCoalescedTx reports frames on ring q that coalesced behind a tx
// doorbell (charged CostNICCoalescedPacket instead of the full
// per-packet platform cost).
func (n *NIC) QueueCoalescedTx(q int) uint64 {
	if q < 0 || q >= len(n.qCoalTx) {
		return 0
	}
	return n.qCoalTx[q]
}

// QueueCoalescedRx reports frames on ring q that coalesced within a
// NAPI rx poll.
func (n *NIC) QueueCoalescedRx(q int) uint64 {
	if q < 0 || q >= len(n.qCoalRx) {
		return 0
	}
	return n.qCoalRx[q]
}

// Doorbells reports tx doorbell rings (one per transmitBatch).
func (n *NIC) Doorbells() uint64 { return n.doorbells }

// Wire returns the wire this NIC is attached to (nil before Connect).
func (n *NIC) Wire() *Wire { return n.wire }

// RxPolls reports NAPI rx polls (each paying one interrupt cost).
func (n *NIC) RxPolls() uint64 { return n.rxPolls }

// countTx / countRx bump the per-queue frame counters.
func (n *NIC) countTx(q int) { n.qTx[q]++ }

func (n *NIC) countRx(q int) { n.qRx[q]++ }

// Dir selects one direction of a Wire: AtoB carries frames transmitted
// by the first stack handed to Connect, BtoA the reverse path.
type Dir int

// Wire directions.
const (
	AtoB Dir = iota
	BtoA
)

// DownWindow is one timed link flap: frames transmitted while the
// virtual clock is in [From, To) vanish in both payload and ACK
// directions the window is armed on — a partition, not a slowdown.
type DownWindow struct {
	From, To uint64
}

// LinkFaults is the adversarial policy for one direction of a Wire:
// independent per-frame drop/duplicate/reorder/bit-corruption
// probabilities driven by a seeded PRNG, a Gilbert–Elliott two-state
// burst-loss channel, timed link flaps on the virtual clock, and a
// deterministic per-frame predicate for tests (the successor of the
// old boolean Wire.Filter hook).
//
// Everything is deterministic: the PRNG is seeded xorshift64*, each
// enabled probability consumes exactly one roll per frame in a fixed
// order (burst, drop, corrupt, duplicate, reorder), and flap windows
// compare against the deterministic virtual clock — so the same seed
// replays the same fault pattern bit for bit, under smp N included.
type LinkFaults struct {
	// Seed seeds the direction's PRNG (any value is fine; it is mixed
	// through splitmix64 before use).
	Seed uint64
	// Drop, Dup, Reorder, Corrupt are independent per-frame
	// probabilities in [0, 1]. A zero rate consumes no randomness.
	Drop, Dup, Reorder, Corrupt float64
	// Gilbert–Elliott burst loss: the channel flips from its good state
	// to the bad state with probability BurstEnter per frame, back with
	// BurstExit, and while bad drops each frame with probability
	// BurstDrop. All three zero disables the channel.
	BurstEnter, BurstExit, BurstDrop float64
	// Down lists link-flap windows in virtual cycles.
	Down []DownWindow
	// DropFn is a deterministic per-frame predicate: returning true
	// drops the frame. Tests use it for surgical loss injection.
	DropFn func(frame []byte) bool
}

// active reports whether any fault mechanism is configured.
func (lf LinkFaults) active() bool {
	return lf.Drop > 0 || lf.Dup > 0 || lf.Reorder > 0 || lf.Corrupt > 0 ||
		lf.BurstEnter > 0 || lf.BurstExit > 0 || lf.BurstDrop > 0 ||
		len(lf.Down) > 0 || lf.DropFn != nil
}

// splitmix64 mixes a seed into a full-period nonzero PRNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// linkState is the per-direction runtime of a LinkFaults policy.
type linkState struct {
	cfg  LinkFaults
	rng  uint64 // xorshift64* state, never zero
	bad  bool   // Gilbert–Elliott bad (bursty) state
	held []byte // frame held back by a reorder, delivered after the next
}

// next steps the xorshift64* PRNG.
func (ls *linkState) next() uint64 {
	x := ls.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	ls.rng = x
	return x * 0x2545f4914f6cdd1d
}

// roll draws one uniform sample in [0, 1).
func (ls *linkState) roll() float64 {
	return float64(ls.next()>>11) / (1 << 53)
}

// Wire connects two NICs. Each direction may carry an armed LinkFaults
// policy; an unarmed direction passes every frame untouched and draws
// no randomness, so a fault-free wire behaves (and costs) exactly like
// one that predates the fault model.
type Wire struct {
	a, b   *NIC
	faults [2]*linkState
	// Fault counters, aggregated over both directions. Dropped counts
	// random, burst and DropFn losses; FlapDropped counts frames that
	// vanished inside a Down window; Corrupted/Duplicated/Reordered
	// count frames that were delivered mutated, twice, or out of order.
	Dropped     uint64
	Corrupted   uint64
	Duplicated  uint64
	Reordered   uint64
	FlapDropped uint64
}

// Arm installs a LinkFaults policy on one direction of the wire.
func (w *Wire) Arm(d Dir, lf LinkFaults) {
	if !lf.active() {
		w.faults[d] = nil
		return
	}
	w.faults[d] = &linkState{cfg: lf, rng: splitmix64(lf.Seed)}
}

// ArmBoth arms both directions with the same policy, deriving a
// distinct PRNG stream per direction from the one seed.
func (w *Wire) ArmBoth(lf LinkFaults) {
	w.Arm(AtoB, lf)
	lf.Seed++
	w.Arm(BtoA, lf)
}

// dirOf returns the transmit direction for the sending NIC.
func (w *Wire) dirOf(n *NIC) Dir {
	if n == w.a {
		return AtoB
	}
	return BtoA
}

// conduct passes one transmitted frame through the direction's fault
// policy and returns the wire-owned copies to deliver, in order (zero
// for a loss, two for a duplicate, current-then-held after a reorder).
// now is the sender's virtual clock, used for flap windows.
func (w *Wire) conduct(ls *linkState, now uint64, frame []byte) [][]byte {
	for _, win := range ls.cfg.Down {
		if now >= win.From && now < win.To {
			w.FlapDropped++
			return nil
		}
	}
	if ls.cfg.DropFn != nil && ls.cfg.DropFn(frame) {
		w.Dropped++
		return nil
	}
	// Gilbert–Elliott: one transition roll, then (in the bad state) one
	// loss roll. Enabled by any nonzero burst parameter so the stream of
	// PRNG draws is a pure function of the policy and the frame count.
	if ls.cfg.BurstEnter > 0 || ls.cfg.BurstExit > 0 || ls.cfg.BurstDrop > 0 {
		if ls.bad {
			if ls.roll() < ls.cfg.BurstExit {
				ls.bad = false
			}
		} else if ls.roll() < ls.cfg.BurstEnter {
			ls.bad = true
		}
		if ls.bad && ls.roll() < ls.cfg.BurstDrop {
			w.Dropped++
			return nil
		}
	}
	if ls.cfg.Drop > 0 && ls.roll() < ls.cfg.Drop {
		w.Dropped++
		return nil
	}
	wireCopy := make([]byte, len(frame))
	copy(wireCopy, frame)
	if ls.cfg.Corrupt > 0 && ls.roll() < ls.cfg.Corrupt {
		// Flip one PRNG-chosen bit of the copy; the sender's retransmit
		// buffer is untouched, so recovery resends clean bytes.
		byteIx := int(ls.next() % uint64(len(wireCopy)))
		bitIx := uint(ls.next() % 8)
		wireCopy[byteIx] ^= 1 << bitIx
		w.Corrupted++
	}
	out := []byte(nil)
	if held := ls.held; held != nil {
		ls.held = nil
		out = held
	}
	if ls.cfg.Dup > 0 && ls.roll() < ls.cfg.Dup {
		dup := make([]byte, len(wireCopy))
		copy(dup, wireCopy)
		w.Duplicated++
		if out != nil {
			return [][]byte{wireCopy, dup, out}
		}
		return [][]byte{wireCopy, dup}
	}
	if ls.cfg.Reorder > 0 && ls.held == nil && ls.roll() < ls.cfg.Reorder {
		// Hold this frame back; it rides behind the next frame that
		// transits this direction (a one-frame-deep reorder).
		ls.held = wireCopy
		w.Reordered++
		if out != nil {
			return [][]byte{out}
		}
		return nil
	}
	if out != nil {
		return [][]byte{wireCopy, out}
	}
	return [][]byte{wireCopy}
}

// Connect wires two stacks together and returns the wire.
func Connect(a, b *Stack) *Wire {
	w := &Wire{}
	na := &NIC{stack: a, wire: w, qTx: make([]uint64, a.numQueues), qRx: make([]uint64, a.numQueues),
		qCoalTx: make([]uint64, a.numQueues), qCoalRx: make([]uint64, a.numQueues)}
	nb := &NIC{stack: b, wire: w, qTx: make([]uint64, b.numQueues), qRx: make([]uint64, b.numQueues),
		qCoalTx: make([]uint64, b.numQueues), qCoalRx: make([]uint64, b.numQueues)}
	na.peer, nb.peer = nb, na
	w.a, w.b = na, nb
	a.attachNIC(na)
	b.attachNIC(nb)
	return w
}

// transmit moves one frame across the wire. The frame is copied (the
// wire owns nothing), filtered, and handed to the peer's input path.
func (n *NIC) transmit(frame []byte) {
	n.countTx(n.stack.frameQueue(frame))
	// TX driver cost on the sending machine.
	n.stack.env.CPU.Charge(clock.CompRest, perPacketPlatformCycles(n.stack.platform))
	n.stack.restHard.OnFrame()
	n.stack.restHard.OnTouch(len(frame))
	n.stack.restHard.OnBulk(len(frame) / 8)
	if ls := n.wire.faults[n.wire.dirOf(n)]; ls != nil {
		for _, f := range n.wire.conduct(ls, n.stack.env.CPU.Cycles(), frame) {
			n.peer.receive(f)
		}
		return
	}
	wireCopy := make([]byte, len(frame))
	copy(wireCopy, frame)
	n.peer.receive(wireCopy)
}

// chargePacket attributes the driver cost of one frame of a batch:
// the first frame pays the full per-packet platform cost (doorbell or
// interrupt included), later frames only the coalesced descriptor-ring
// cost. The Xen per-packet penalty models per-frame grant-table work,
// not the notification, so it stays per frame.
func (n *NIC) chargePacket(first bool, frameLen int) {
	cost := perPacketPlatformCycles(n.stack.platform)
	if !first {
		cost = clock.CostNICCoalescedPacket
		if n.stack.platform == Xen {
			cost += clock.CostXenPacketExtra
		}
	}
	n.stack.env.CPU.Charge(clock.CompRest, cost)
	n.stack.restHard.OnFrame()
	n.stack.restHard.OnTouch(frameLen)
	n.stack.restHard.OnBulk(frameLen / 8)
}

// transmitBatch moves one tx doorbell's frames across the wire
// together: the doorbell cost is paid by the first frame, the rest
// coalesce. Delivery stays synchronous — the surviving frames reach
// the peer as one rx batch.
func (n *NIC) transmitBatch(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	n.doorbells++
	ls := n.wire.faults[n.wire.dirOf(n)]
	delivered := make([][]byte, 0, len(frames))
	for i, frame := range frames {
		q := n.stack.frameQueue(frame)
		n.countTx(q)
		n.chargePacket(i == 0, len(frame))
		if i > 0 {
			n.qCoalTx[q]++
		}
		if ls != nil {
			delivered = append(delivered, n.wire.conduct(ls, n.stack.env.CPU.Cycles(), frame)...)
			continue
		}
		wireCopy := make([]byte, len(frame))
		copy(wireCopy, frame)
		delivered = append(delivered, wireCopy)
	}
	n.peer.receiveBatch(delivered)
}

// receiveBatch is the NAPI-style coalesced receive path: frames that
// arrived in one wire batch are polled in chunks of the receiving
// stack's rx budget. Each poll pays the interrupt cost once (later
// frames coalesce) and holds pure ACKs so every touched socket
// acknowledges the whole burst with one cumulative ACK. A receiver
// with no budget configured falls back to the per-frame path.
func (n *NIC) receiveBatch(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	budget := n.stack.rxBudget
	if budget <= 1 {
		for _, frame := range frames {
			n.receive(frame)
		}
		return
	}
	// Same deadline quarantine as receive: input processing is the
	// interrupt analogue, never the transmitting caller's deadlined work.
	var cur *sched.Thread
	var saved uint64
	if n.stack.env.Cur != nil {
		if cur = n.stack.env.Cur(); cur != nil {
			saved, cur.Deadline = cur.Deadline, 0
		}
	}
	// RSS: demux the wire batch onto the rx rings, then poll each ring
	// on its own vCPU. With one queue this is the whole batch on ring 0
	// — the single-queue behavior, bit for bit.
	if n.stack.numQueues <= 1 {
		n.pollQueue(0, frames, budget)
	} else {
		perQ := make([][][]byte, n.stack.numQueues)
		for _, frame := range frames {
			q := n.stack.frameQueue(frame)
			perQ[q] = append(perQ[q], frame)
		}
		for q, qframes := range perQ {
			n.pollQueue(q, qframes, budget)
		}
	}
	if cur != nil {
		cur.Deadline = saved
	}
}

// pollQueue runs the NAPI polls of one rx ring, with the interrupt and
// all input processing steered to (and charged on) the queue's vCPU.
func (n *NIC) pollQueue(q int, frames [][]byte, budget int) {
	if len(frames) == 0 {
		return
	}
	restore := n.stack.env.CPU.Steer(n.stack.queueCPUFor(q))
	defer restore()
	for start := 0; start < len(frames); start += budget {
		end := start + budget
		if end > len(frames) {
			end = len(frames)
		}
		n.rxPolls++
		n.stack.beginRxBatch()
		for i := start; i < end; i++ {
			n.countRx(q)
			n.chargePacket(i == start, len(frames[i]))
			if i > start {
				n.qCoalRx[q]++
			}
			n.stack.input(frames[i])
		}
		n.stack.endRxBatch()
	}
}

// receive runs the receiving stack's input path inline.
func (n *NIC) receive(frame []byte) {
	q := n.stack.frameQueue(frame)
	n.countRx(q)
	// RX interrupt steering: the queue's vCPU takes the interrupt and
	// runs the input path (no-op on a single-queue device over a
	// standalone CPU).
	restore := n.stack.env.CPU.Steer(n.stack.queueCPUFor(q))
	defer restore()
	// RX driver cost on the receiving machine.
	n.stack.env.CPU.Charge(clock.CompRest, perPacketPlatformCycles(n.stack.platform))
	n.stack.restHard.OnFrame()
	n.stack.restHard.OnTouch(len(frame))
	n.stack.restHard.OnBulk(len(frame) / 8)
	// Delivery borrows whatever thread happened to transmit, but the
	// peer's input processing is the receive-interrupt analogue, not
	// part of that caller's deadlined work: a frame deadline must not
	// leak across the wire. If it did, a gate on the receiving machine
	// could refuse the input path's internal crossings — and a refused
	// semaphore wake-up (the ACK that reopens a stalled sender's flow
	// control, swallowed on the rx path) wedges the connection forever.
	var cur *sched.Thread
	var saved uint64
	if n.stack.env.Cur != nil {
		if cur = n.stack.env.Cur(); cur != nil {
			saved, cur.Deadline = cur.Deadline, 0
		}
	}
	n.stack.input(frame)
	if cur != nil {
		cur.Deadline = saved
	}
}
