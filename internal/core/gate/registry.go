package gate

import (
	"fmt"
	"sort"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// Registry is the runtime artifact the builder produces from a
// compartmentalization plan: the library -> compartment assignment and
// one gate per compartment pair. OS components call through it at
// every cross-library call site; the registry resolves the placeholder
// to a direct call or a domain crossing, exactly like the link-time
// gate instantiation of the paper.
type Registry struct {
	domains   map[string]*Domain // compartment -> domain
	libs      map[string]string  // library -> compartment
	direct    Gate
	cross     Gate
	pairCount map[[2]string]uint64
	tracer    func(fromComp, toComp string)
	observer  func(fromLib, toLib, fn string)
	injector  *fault.Injector
	meterClk  clock.Clock
	meter     func(fromComp, toComp string, cpu int, cycles uint64, frames int)
}

// SetTracer installs a callback invoked on every inter-compartment
// crossing (nil disables tracing).
func (r *Registry) SetTracer(fn func(fromComp, toComp string)) { r.tracer = fn }

// SetObserver installs a callback invoked on every named cross-library
// call, including intra-compartment ones — the dynamic-analysis tap
// the metadata generator records from (nil disables).
func (r *Registry) SetObserver(fn func(fromLib, toLib, fn string)) { r.observer = fn }

// SetMeter installs the metrics hook invoked after every
// inter-compartment crossing with the vCPU it started on and the
// measured cycle cost of the whole call (crossing plus callee work, as
// seen by that vCPU's counter). frames is 1 for a plain call and the
// batch size for one amortized CallBatch crossing. Unlike the trace
// ring, the meter's consumers keep *live counters* — they never drop
// under load — which is what the attribution path reads. nil disables
// metering.
func (r *Registry) SetMeter(clk clock.Clock, fn func(fromComp, toComp string, cpu int, cycles uint64, frames int)) {
	r.meterClk, r.meter = clk, fn
}

// SetInjector installs a deterministic fault injector fired at every
// call entry, direct or crossing (nil disables). An injected trap on a
// crossing is contained by the isolating gate; on a direct call it
// unwinds the image — which is the point of the blast-radius
// comparison.
func (r *Registry) SetInjector(in *fault.Injector) { r.injector = in }

// NewRegistry creates a registry using direct for intra-compartment
// calls and cross for inter-compartment calls.
func NewRegistry(direct, cross Gate) *Registry {
	return &Registry{
		domains:   make(map[string]*Domain),
		libs:      make(map[string]string),
		direct:    direct,
		cross:     cross,
		pairCount: make(map[[2]string]uint64),
	}
}

// AddCompartment registers a compartment's protection domain.
func (r *Registry) AddCompartment(d *Domain) { r.domains[d.Name] = d }

// Assign places a library into a compartment.
func (r *Registry) Assign(lib, compartment string) error {
	if _, ok := r.domains[compartment]; !ok {
		return fmt.Errorf("gate: unknown compartment %q", compartment)
	}
	r.libs[lib] = compartment
	return nil
}

// CompartmentOf reports the compartment a library lives in.
func (r *Registry) CompartmentOf(lib string) (string, bool) {
	c, ok := r.libs[lib]
	return c, ok
}

// Domain returns a compartment's protection domain.
func (r *Registry) Domain(compartment string) (*Domain, bool) {
	d, ok := r.domains[compartment]
	return d, ok
}

// Libraries lists the assigned libraries, sorted.
func (r *Registry) Libraries() []string {
	out := make([]string, 0, len(r.libs))
	for l := range r.libs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// SameCompartment reports whether two libraries share a compartment.
func (r *Registry) SameCompartment(a, b string) bool {
	ca, okA := r.libs[a]
	cb, okB := r.libs[b]
	return okA && okB && ca == cb
}

// SharesByReference reports whether payload buffers attached to a call
// from library a to library b reach the callee without being copied:
// either both live in the same compartment, or the crossing backend's
// transfer policy is by-reference.
func (r *Registry) SharesByReference(a, b string) bool {
	if r.SameCompartment(a, b) {
		return true
	}
	return r.cross.Backend().Transfer() == TransferShare
}

// Call routes a cross-library call: the uk_gate placeholder at run
// time. fromLib is the calling library, toLib the callee; argWords the
// number of 8-byte argument words the signature carries (one scalar
// return word is assumed).
func (r *Registry) Call(fromLib, toLib string, argWords int, fn func() error) error {
	return r.CallWithFrame(fromLib, toLib, "", CallFrame{ArgWords: argWords, RetWords: 1}, fn)
}

// CallWithFrame is the full-ABI call site: the frame carries argument
// and return word counts plus any payload buffers attached by
// descriptor (the zero-copy data path).
func (r *Registry) CallWithFrame(fromLib, toLib, fnName string, frame CallFrame, fn func() error) error {
	cf, ok := r.libs[fromLib]
	if !ok {
		return fmt.Errorf("gate: caller library %q not assigned", fromLib)
	}
	ct, ok := r.libs[toLib]
	if !ok {
		return fmt.Errorf("gate: callee library %q not assigned", toLib)
	}
	if r.observer != nil && fnName != "" {
		r.observer(fromLib, toLib, fnName)
	}
	inner := fn
	if r.injector != nil {
		// The injection point sits on the callee side of the gate:
		// armed faults fire at call entry, before the callee mutates
		// state, inside whatever trap boundary the gate provides.
		inner = func() error {
			r.injector.OnCall(toLib, ct, fnName)
			return fn()
		}
	}
	if cf == ct {
		return r.direct.Call(r.domains[cf], r.domains[ct], frame, inner)
	}
	r.pairCount[[2]string{cf, ct}]++
	if r.tracer != nil {
		r.tracer(cf, ct)
	}
	if r.meter != nil {
		cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
		err := r.cross.Call(r.domains[cf], r.domains[ct], frame, inner)
		r.meter(cf, ct, cpu, r.meterClk.Cycles()-start, 1)
		return err
	}
	return r.cross.Call(r.domains[cf], r.domains[ct], frame, inner)
}

// CallBatch routes N cross-library calls to the same callee through
// one crossing where the backend supports it. Same-compartment batches
// and non-amortizing backends (direct, CHERI) degenerate to a loop of
// single calls; the MPK and VM-RPC gates carry the whole batch through
// one domain switch. The returned slice has one entry per frame (nil
// for success) — per-frame semantics (observer, injector, trap
// containment) are identical to N separate calls.
func (r *Registry) CallBatch(fromLib, toLib, fnName string, frames []CallFrame, fns []func() error) []error {
	errs := make([]error, len(frames))
	fill := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	cf, ok := r.libs[fromLib]
	if !ok {
		return fill(fmt.Errorf("gate: caller library %q not assigned", fromLib))
	}
	ct, ok := r.libs[toLib]
	if !ok {
		return fill(fmt.Errorf("gate: callee library %q not assigned", toLib))
	}
	inners := make([]func() error, len(fns))
	for i, fn := range fns {
		if r.observer != nil && fnName != "" {
			r.observer(fromLib, toLib, fnName)
		}
		inner := fn
		if r.injector != nil {
			inner = func() error {
				r.injector.OnCall(toLib, ct, fnName)
				return fn()
			}
		}
		inners[i] = inner
	}
	if cf == ct {
		for i := range frames {
			errs[i] = r.direct.Call(r.domains[cf], r.domains[ct], frames[i], inners[i])
		}
		return errs
	}
	bg, amortized := r.cross.(BatchGate)
	if !amortized {
		for i := range frames {
			r.pairCount[[2]string{cf, ct}]++
			if r.tracer != nil {
				r.tracer(cf, ct)
			}
			if r.meter != nil {
				cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
				errs[i] = r.cross.Call(r.domains[cf], r.domains[ct], frames[i], inners[i])
				r.meter(cf, ct, cpu, r.meterClk.Cycles()-start, 1)
				continue
			}
			errs[i] = r.cross.Call(r.domains[cf], r.domains[ct], frames[i], inners[i])
		}
		return errs
	}
	// One physical crossing for the whole batch.
	r.pairCount[[2]string{cf, ct}]++
	if r.tracer != nil {
		r.tracer(cf, ct)
	}
	if r.meter != nil {
		cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
		errs = bg.CallBatch(r.domains[cf], r.domains[ct], frames, inners)
		r.meter(cf, ct, cpu, r.meterClk.Cycles()-start, len(frames))
		return errs
	}
	return bg.CallBatch(r.domains[cf], r.domains[ct], frames, inners)
}

// Crossings reports the number of inter-compartment crossings between
// the two compartments (directional).
func (r *Registry) Crossings(fromComp, toComp string) uint64 {
	return r.pairCount[[2]string{fromComp, toComp}]
}

// TotalCrossings reports all inter-compartment crossings.
func (r *Registry) TotalCrossings() uint64 {
	var n uint64
	for _, c := range r.pairCount {
		n += c
	}
	return n
}

// CrossStalled reports the cycles callers spent serialized behind the
// cross gate — nonzero only for backends with a single-threaded callee
// (VM-RPC, where one VMM endpoint services every vCPU's calls in
// turn). It is the SMP experiment's measure of where RPC isolation
// stops scaling.
func (r *Registry) CrossStalled() uint64 {
	if g, ok := r.cross.(interface{ Stalled() uint64 }); ok {
		return g.Stalled()
	}
	return 0
}

// CrossingMatrix returns a copy of the per-pair crossing counters.
func (r *Registry) CrossingMatrix() map[[2]string]uint64 {
	out := make(map[[2]string]uint64, len(r.pairCount))
	for k, v := range r.pairCount {
		out[k] = v
	}
	return out
}
