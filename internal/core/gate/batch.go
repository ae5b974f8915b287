package gate

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// Batched gate calls: the crossing-amortization ABI.
//
// A crossing's fixed cost (WRPKRU pair, VM notification round trip) is
// the dominant term of every isolating image's overhead, and it is paid
// per call. CallBatch carries N frames through ONE crossing: the gate
// enters the callee domain once, dispatches each frame for a small
// fixed cost, and returns once. Direct calls and CHERI gain nothing
// from batching (their per-call cost is already a handful of cycles),
// so they simply do not implement BatchGate and the registry loops;
// the MPK and VM-RPC gates amortize.
//
// Isolation semantics stay per-frame: each frame runs inside its own
// trap boundary (one trapped frame aborts only that frame), deadline
// checks apply at each frame's dispatch, and the supervisor layered
// above applies admission control and breaker feedback frame by frame.

// BatchGate is implemented by gates whose crossing cost can be
// amortized over several frames. CallBatch runs fns[i] under frames[i]
// in the `to` domain, paying the domain crossing once; the returned
// slice has one entry per frame (nil for success). frames and fns must
// have equal length.
type BatchGate interface {
	Gate
	CallBatch(from, to *Domain, frames []CallFrame, fns []func() error) []error
}

// BatchCrossingCost reports the fixed cycle cost of carrying n frames
// across a backend's boundary: one crossing plus n dispatches for the
// amortizing backends, n full crossings for the rest. The static
// counterpart of CallBatch, used by the explorer and pinned against
// the real gates by the consistency test.
func BatchCrossingCost(b Backend, n int) uint64 {
	if n <= 0 {
		return 0
	}
	switch b {
	case MPKShared, MPKSwitched, VMRPC:
		return CrossingCost(b) + uint64(n)*clock.CostBatchDispatch
	default:
		// Direct calls and CHERI degenerate to a loop.
		return uint64(n) * CrossingCost(b)
	}
}

// batchFrameDeadline refuses one frame's dispatch inside an
// already-entered batch. The crossing itself is paid by then; what a
// deadline can still veto is running the frame's work, so the check is
// against the dispatch cost alone. Refusal charges the same cheap
// rejection path as a gate-entry refusal and yields the same typed
// KindDeadline trap, scoped to this frame.
func batchFrameDeadline(cpu clock.Clock, from, to *Domain, frame CallFrame) error {
	if frame.Deadline == 0 {
		return nil
	}
	now := cpu.Cycles()
	if now+clock.CostBatchDispatch <= frame.Deadline {
		return nil
	}
	cpu.Charge(clock.CompGate, clock.CostDeadlineRefuse)
	pc := crossPC(from, to)
	return fault.Classify(to.Name, pc,
		&fault.DeadlineExceeded{PC: pc, Deadline: frame.Deadline, Now: now})
}

// CallBatch carries the whole batch through one PKRU round trip. Entry
// marshals every frame's words at once (switched stacks copy the summed
// entry+payload words in one go); each frame then dispatches inside its
// own trap boundary; the return path restores the caller domain once.
func (g *mpkGate) CallBatch(from, to *Domain, frames []CallFrame, fns []func() error) []error {
	g.count++
	errs := make([]error, len(frames))
	// Frames whose descriptors the callee could not reach are refused
	// before the crossing, exactly like the single-call path; the rest
	// of the batch still crosses.
	live := make([]bool, len(frames))
	words, any := 0, false
	for i, f := range frames {
		if !g.switched {
			if err := g.checkSharedBufs(f); err != nil {
				errs[i] = fmt.Errorf("gate %s->%s: %w", from.Name, to.Name, err)
				continue
			}
		}
		live[i] = true
		any = true
		words += f.EntryWords() + f.PayloadWords()
	}
	if !any {
		return errs
	}
	g.clk.Charge(clock.CompGate, clock.CostRegisterClear)
	if g.switched {
		g.clk.Charge(clock.CompGate,
			clock.CostStackSwitch+uint64(words)*clock.CostParamCopyPerWord)
	}
	if err := g.unit.WritePKRU(to.PKRU); err != nil {
		trap := &fault.Trap{Comp: to.Name, Kind: fault.KindSealedPKRU, PC: crossPC(from, to),
			Cause: fmt.Errorf("gate %s->%s: %w", from.Name, to.Name, err)}
		for i := range frames {
			if live[i] {
				errs[i] = trap
			}
		}
		return errs
	}
	retWords := 0
	for i, fn := range fns {
		if !live[i] {
			continue
		}
		// Per-frame deadline: earlier frames' work advances the clock,
		// so a late frame in the batch can still be refused here.
		if err := batchFrameDeadline(g.clk, from, to, frames[i]); err != nil {
			errs[i] = err
			continue
		}
		g.clk.Charge(clock.CompGate, clock.CostBatchDispatch)
		// Each frame gets its own trap boundary: one trapped frame
		// aborts only itself, the rest of the batch completes.
		errs[i] = fault.ContainCrossing(from.Name, to.Name, fn)
		retWords += frames[i].RetWords
	}
	g.clk.Charge(clock.CompGate, clock.CostRegisterClear)
	if g.switched {
		g.clk.Charge(clock.CompGate,
			clock.CostStackSwitch+uint64(retWords)*clock.CostParamCopyPerWord)
	}
	if err := g.unit.WritePKRU(from.PKRU); err != nil {
		trap := &fault.Trap{Comp: to.Name, Kind: fault.KindSealedPKRU, PC: crossPC(from, to),
			Cause: fmt.Errorf("gate %s<-%s return: %w", from.Name, to.Name, err)}
		for i := range frames {
			if live[i] && errs[i] == nil {
				errs[i] = trap
			}
		}
	}
	return errs
}

// CallBatch marshals every frame's request into the shared ring under
// one notification pair: one VM exit carries N requests over, one
// carries N responses back. This is where batching pays the most —
// CostVMNotify dwarfs everything else in the RPC crossing.
func (g *rpcGate) CallBatch(from, to *Domain, frames []CallFrame, fns []func() error) []error {
	g.count++
	errs := make([]error, len(frames))
	words := 0
	for _, f := range frames {
		words += f.EntryWords() + f.PayloadWords()
	}
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+clock.CostVMRPCFixed+
		uint64(words)*clock.CostParamCopyPerWord)
	if g.notify != nil {
		g.notify(from, to)
	}
	retWords := 0
	for i, fn := range fns {
		if err := batchFrameDeadline(g.clk, from, to, frames[i]); err != nil {
			errs[i] = err
			continue
		}
		g.clk.Charge(clock.CompVMM, clock.CostBatchDispatch)
		errs[i] = fault.ContainCrossing(from.Name, to.Name, fn)
		retWords += frames[i].RetWords
	}
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+
		uint64(retWords)*clock.CostParamCopyPerWord)
	if g.notify != nil {
		g.notify(to, from)
	}
	return errs
}
