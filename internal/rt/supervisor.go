package rt

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/sched"
)

// maxRestartAttempts bounds the supervisor's replay loop: a compartment
// that keeps trapping after this many restarts is aborted.
const maxRestartAttempts = 3

// SupervisorStats counts fault-containment activity on one machine.
type SupervisorStats struct {
	// Traps is how many typed traps reached the supervisor.
	Traps uint64
	// Recoveries is how many trapped calls completed after a restart.
	Recoveries uint64
	// Retries is how many replay attempts were made in total.
	Retries uint64
	// Aborts is how many traps were propagated to the caller.
	Aborts uint64
	// Degrades is how many compartments were taken out of service.
	Degrades uint64
	// ReclaimedBufs / ReclaimedRefs count pool buffers and references
	// force-released by restart teardown.
	ReclaimedBufs uint64
	ReclaimedRefs uint64
	// RecoveryCycles is the virtual time spent in teardown and backoff.
	RecoveryCycles uint64

	// Sheds is how many calls the admission queues rejected before any
	// gate crossing (overload.go).
	Sheds uint64
	// Blocked is how many times a caller parked waiting for an
	// admission slot under the block policy.
	Blocked uint64
	// DeadlineTraps is how many KindDeadline traps (gate refused a
	// crossing past its budget) reached the supervisor.
	DeadlineTraps uint64
	// BreakerFastFails is how many calls an open circuit breaker
	// failed without crossing.
	BreakerFastFails uint64
	// BreakerOpens / BreakerCloses count breaker state transitions.
	BreakerOpens  uint64
	BreakerCloses uint64
}

// Supervisor drives per-compartment fault policy on one machine. Every
// Env routes its gate calls through Supervise; when a call comes back
// with a fault.Trap raised by the callee compartment, the supervisor
// applies the compartment's configured policy: propagate (abort), tear
// down and replay (restart), or fail the compartment fast from then on
// (degrade). Teardown reuses the shared pool's leak accounting — the
// trapped call's in-flight buffers are force-released against a
// pre-call mark — and resets the compartment's drained private heaps.
type Supervisor struct {
	cpu    clock.Clock
	pool   *mem.SharedPool
	comps  map[string]*compState
	stats  SupervisorStats
	tracer func(kind, comp, note string)

	curThread func() *sched.Thread
	onShed    func(comp string)
}

// compState is everything the supervisor keeps for one compartment.
// An Env's route into a compartment points at its compState, so a
// routed call reaches the policy, the admission queue and the breaker
// without a lookup by name.
type compState struct {
	name     string
	policy   fault.Policy
	heaps    []*mem.Heap
	degraded *fault.Trap // non-nil once PolicyDegrade took it out of service

	// Overload control (overload.go): the admission queue in front of
	// the compartment's gate and its circuit breaker.
	overload    OverloadSpec
	hasOverload bool
	inFlight    int
	admitQ      sched.WaitQueue
	breaker     BreakerSpec // Threshold > 0 when configured
	brk         *breakerState
}

// NewSupervisor creates a supervisor charging recovery work to cpu.
// pool may be nil (poolless images skip buffer teardown).
func NewSupervisor(cpu clock.Clock, pool *mem.SharedPool) *Supervisor {
	return &Supervisor{cpu: cpu, pool: pool, comps: make(map[string]*compState)}
}

// comp returns compartment name's state, creating it on first use. The
// pointer is stable, so routes may hold it and setters called later
// still reach them.
func (s *Supervisor) comp(name string) *compState {
	cs := s.comps[name]
	if cs == nil {
		cs = &compState{name: name}
		s.comps[name] = cs
	}
	return cs
}

// SetPolicy configures a compartment's reaction to its own traps.
func (s *Supervisor) SetPolicy(comp string, p fault.Policy) { s.comp(comp).policy = p }

// Policy reports a compartment's policy (PolicyAbort by default).
func (s *Supervisor) Policy(comp string) fault.Policy { return s.comp(comp).policy }

// RegisterHeap records a private heap owned exclusively by comp, a
// restart-teardown target.
func (s *Supervisor) RegisterHeap(comp string, h *mem.Heap) {
	cs := s.comp(comp)
	cs.heaps = append(cs.heaps, h)
}

// SetTracer installs a callback for fault lifecycle events; kinds are
// "fault", "recover", "degrade" and the overload-control kinds
// "overload", "shed", "deadline", "breaker-open" and "breaker-close"
// (nil disables).
func (s *Supervisor) SetTracer(fn func(kind, comp, note string)) { s.tracer = fn }

// Degraded reports whether comp was taken out of service, and the trap
// that did it.
func (s *Supervisor) Degraded(comp string) (*fault.Trap, bool) {
	t := s.comp(comp).degraded
	return t, t != nil
}

// Stats returns a copy of the containment counters.
func (s *Supervisor) Stats() SupervisorStats { return s.stats }

func (s *Supervisor) trace(kind, comp, note string) {
	if s.tracer != nil {
		s.tracer(kind, comp, note)
	}
}

func (s *Supervisor) mark() mem.PoolMark {
	if s.pool == nil {
		return 0
	}
	return s.pool.Mark()
}

// Supervise runs one gate call into compartment toComp and applies
// toComp's fault policy to any trap the callee raised. Traps from
// deeper compartments (already handled by a nested Supervise closer to
// the fault) pass through untouched.
func (s *Supervisor) Supervise(toComp string, call func() error) error {
	return s.SuperviseCall(toComp, 0, true, call)
}

// SuperviseCall is Supervise with the routed frame's deadline and the
// crossing flag made explicit. Admission queues and circuit breakers
// sit in front of *isolating* gates, so intra-compartment calls
// (crossing=false) skip them — a compartment cannot shed calls from
// itself — while the fault-policy machinery still applies.
func (s *Supervisor) SuperviseCall(toComp string, deadline uint64, crossing bool, call func() error) error {
	return s.supervise(s.comp(toComp), deadline, crossing, call)
}

// supervise is SuperviseCall on a resolved compartment: the routed
// path Env calls, and the one SuperviseCall wraps.
func (s *Supervisor) supervise(cs *compState, deadline uint64, crossing bool, call func() error) error {
	if cs.degraded != nil {
		return &fault.DegradedError{Comp: cs.name, Cause: cs.degraded}
	}
	if crossing {
		a, err := s.admit(cs, deadline)
		if err != nil {
			return err
		}
		// The slot must free (and block-policy waiters wake) even if
		// the supervised call panics past the trap boundary — a leaked
		// slot would turn a simulator bug into a fake deadlock.
		defer a.release()
	}
	mark := s.mark()
	return s.settle(cs, crossing, mark, call(), call)
}

// settle classifies one supervised call's outcome and applies toComp's
// fault policy: breaker feedback on success, the cheap rejection path
// for deadline misses, and the abort/restart/degrade machinery for
// traps. retry replays the call for the restart policy; mark bounds
// what teardown may reclaim. SuperviseCall settles every call through
// here, and SuperviseBatch settles each frame of a batch — which is
// what makes containment per-frame: one trapped frame reaches its own
// settle with its own retry, the rest of the batch settles clean.
func (s *Supervisor) settle(cs *compState, crossing bool, mark mem.PoolMark, err error, retry func() error) error {
	toComp := cs.name
	t, ok := fault.As(err)
	if !ok || t.Comp != toComp {
		if crossing {
			s.breakerOK(cs)
		}
		return err
	}
	if t.Kind == fault.KindDeadline {
		// A deadline miss is a load fault, not a memory fault: the gate
		// refused entry before the crossing, so there is nothing to tear
		// down — and nothing a replay could fix, since an absolute
		// deadline only recedes. Charge the cheap rejection path, feed
		// the breaker, propagate.
		s.stats.DeadlineTraps++
		s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
		s.trace("deadline", toComp, t.Error())
		if crossing {
			s.breakerFail(cs)
		}
		return t
	}
	s.stats.Traps++
	s.cpu.Charge(clock.CompFault, clock.CostFaultTrap)
	s.trace("fault", toComp, t.Error())
	if crossing {
		s.breakerFail(cs)
	}
	switch cs.policy {
	case fault.PolicyRestart:
		for attempt := 1; attempt <= maxRestartAttempts; attempt++ {
			start := s.cpu.Cycles()
			s.teardown(cs, mark)
			// Bounded exponential backoff before the replay.
			s.cpu.Charge(clock.CompFault, clock.CostFaultBackoff<<(attempt-1))
			s.stats.RecoveryCycles += s.cpu.Cycles() - start
			s.stats.Retries++
			s.trace("recover", toComp, fmt.Sprintf("restart attempt %d after %v", attempt, t.Kind))
			mark = s.mark()
			err = retry()
			if t2, again := fault.As(err); again && t2.Comp == toComp {
				if crossing {
					s.breakerFail(cs)
				}
				if t2.Kind == fault.KindDeadline {
					// The replay ran out of budget: stop retrying.
					s.stats.DeadlineTraps++
					s.cpu.Charge(clock.CompFault, clock.CostOverloadShed)
					s.trace("deadline", toComp, t2.Error())
					return t2
				}
				s.stats.Traps++
				s.cpu.Charge(clock.CompFault, clock.CostFaultTrap)
				s.trace("fault", toComp, t2.Error())
				t = t2
				continue
			}
			s.stats.Recoveries++
			if crossing {
				s.breakerOK(cs)
			}
			return err
		}
		s.stats.Aborts++
		return t
	case fault.PolicyDegrade:
		s.teardown(cs, mark)
		cs.degraded = t
		s.stats.Degrades++
		s.trace("degrade", toComp, t.Kind.String())
		return &fault.DegradedError{Comp: toComp, Cause: t}
	default: // PolicyAbort
		s.stats.Aborts++
		return t
	}
}

// SuperviseBatch applies the supervisor's whole surface — degradation,
// admission queues, circuit breakers, fault policy — *per frame* around
// one batched gate crossing into toComp. deadlines carries one entry
// per frame (0 = none); runBatch receives the indices of the admitted
// frames and must return one error per admitted frame, in order; retry
// replays a single frame solo (the restart policy re-crosses for just
// that frame). The returned slice has one entry per original frame:
// frames the admission queue or breaker rejected carry their typed
// ShedError/BreakerOpenError (charged per-frame, exactly as if each had
// been a separate call), and every admitted frame's outcome is settled
// individually, so one trapped frame aborts or restarts alone.
func (s *Supervisor) SuperviseBatch(toComp string, deadlines []uint64, crossing bool,
	runBatch func(admitted []int) []error, retry func(i int) error) []error {
	return s.superviseBatch(s.comp(toComp), deadlines, crossing, runBatch, retry)
}

// superviseBatch is SuperviseBatch on a resolved compartment.
func (s *Supervisor) superviseBatch(cs *compState, deadlines []uint64, crossing bool,
	runBatch func(admitted []int) []error, retry func(i int) error) []error {
	errs := make([]error, len(deadlines))
	if cs.degraded != nil {
		for i := range errs {
			errs[i] = &fault.DegradedError{Comp: cs.name, Cause: cs.degraded}
		}
		return errs
	}
	admitted := make([]int, 0, len(deadlines))
	var held []admission
	if crossing {
		for i, dl := range deadlines {
			a, err := s.admit(cs, dl)
			if err != nil {
				errs[i] = err
				continue
			}
			held = append(held, a)
			admitted = append(admitted, i)
		}
	} else {
		for i := range deadlines {
			admitted = append(admitted, i)
		}
	}
	// Slots release (and block-policy waiters wake) even if a frame
	// panics past its trap boundary, for the same reason supervise
	// defers its release.
	defer func() {
		for _, a := range held {
			a.release()
		}
	}()
	if len(admitted) == 0 {
		return errs
	}
	batchErrs := runBatch(admitted)
	for j, i := range admitted {
		var err error
		if j < len(batchErrs) {
			err = batchErrs[j]
		}
		frame := i
		// Each frame settles against a mark taken now, after the batch
		// ran: teardown of one trapped frame must never reclaim buffers
		// that surviving frames of the same batch handed to their
		// callers.
		errs[i] = s.settle(cs, crossing, s.mark(), err,
			func() error { return retry(frame) })
	}
	return errs
}

// teardown reclaims what the faulted call left behind in comp: pool
// buffers allocated during the call window are force-released (their
// owner is gone; the leak accounting must still read zero), and any
// fully-drained private heap of the compartment is reset to pristine.
// Heaps with live allocations that predate the fault are left intact —
// they back protocol state the surviving callers still reference.
func (s *Supervisor) teardown(cs *compState, mark mem.PoolMark) {
	if s.pool != nil {
		bufs, refs := s.pool.ReleaseSince(mark)
		s.stats.ReclaimedBufs += uint64(bufs)
		s.stats.ReclaimedRefs += uint64(refs)
		s.cpu.Charge(clock.CompFault, uint64(bufs)*clock.CostFaultReclaimBuf)
	}
	for _, h := range cs.heaps {
		// The sweep walks the compartment's whole heap region.
		s.cpu.Charge(clock.CompFault, clock.FaultSweepCycles(h.Size()))
		if h.Stats().LiveBytes == 0 {
			h.Reset()
		}
	}
}
