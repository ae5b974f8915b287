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
// gate instantiation of the paper. Resolution happens once per
// (caller, callee) library pair, into a Route; calls then run through
// the route without looking up a name.
type Registry struct {
	domains []*Domain      // compartment index -> domain
	compIdx map[string]int // compartment name -> index
	libs    map[string]int // library -> compartment index
	routes  map[[2]string]*Route
	direct  Gate
	cross   Gate
	// pairCount counts crossings per compartment pair, row-major:
	// pairCount[from*len(domains)+to].
	pairCount []uint64
	tracer    func(fromComp, toComp string)
	observer  func(fromLib, toLib, fn string)
	injector  *fault.Injector
	meterClk  clock.Clock
	meter     func(r *Route, cpu int, cycles uint64, frames int)
}

// Route is one resolved call site: a (caller library, callee library)
// pair bound to both compartments' domains and dense indices. The
// fields are read-only. A route stays valid until Assign or
// AddCompartment changes the plan, which marks it Stale.
type Route struct {
	// From and To are the caller's and the callee's compartments.
	From, To *Domain
	// FromIdx and ToIdx are their dense compartment indices, in
	// AddCompartment order.
	FromIdx, ToIdx int
	// Crossing is true when the two libraries live in different
	// compartments, so calls go through the crossing gate.
	Crossing bool

	reg            *Registry
	fromLib, toLib string
	stale          bool
}

// Stale reports whether the plan changed after the route was resolved;
// a holder of a stale route resolves the pair again.
func (rt *Route) Stale() bool { return rt.stale }

// SetTracer installs a callback invoked on every inter-compartment
// crossing (nil disables tracing).
func (r *Registry) SetTracer(fn func(fromComp, toComp string)) { r.tracer = fn }

// SetObserver installs a callback invoked on every named cross-library
// call, including intra-compartment ones — the dynamic-analysis tap
// the metadata generator records from (nil disables).
func (r *Registry) SetObserver(fn func(fromLib, toLib, fn string)) { r.observer = fn }

// SetMeter installs the metrics hook invoked after every
// inter-compartment crossing with the route it took, the vCPU it
// started on and the measured cycle cost of the whole call (crossing
// plus callee work, as seen by that vCPU's counter). frames is 1 for a
// plain call and the batch size for one amortized CallBatch crossing.
// Unlike the trace ring, the meter's consumers keep *live counters* —
// they never drop under load — which is what the attribution path
// reads. nil disables metering.
func (r *Registry) SetMeter(clk clock.Clock, fn func(r *Route, cpu int, cycles uint64, frames int)) {
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
		compIdx: make(map[string]int),
		libs:    make(map[string]int),
		routes:  make(map[[2]string]*Route),
		direct:  direct,
		cross:   cross,
	}
}

// invalidate marks every resolved route stale after a plan change.
func (r *Registry) invalidate() {
	for _, rt := range r.routes {
		rt.stale = true
	}
	clear(r.routes)
}

// AddCompartment registers a compartment's protection domain. A domain
// whose name is already registered replaces the earlier one.
func (r *Registry) AddCompartment(d *Domain) {
	r.invalidate()
	if i, ok := r.compIdx[d.Name]; ok {
		r.domains[i] = d
		return
	}
	n := len(r.domains)
	grown := make([]uint64, (n+1)*(n+1))
	for from := 0; from < n; from++ {
		copy(grown[from*(n+1):], r.pairCount[from*n:(from+1)*n])
	}
	r.pairCount = grown
	r.compIdx[d.Name] = n
	r.domains = append(r.domains, d)
}

// NumCompartments reports how many compartments are registered; route
// indices are below it.
func (r *Registry) NumCompartments() int { return len(r.domains) }

// Assign places a library into a compartment.
func (r *Registry) Assign(lib, compartment string) error {
	i, ok := r.compIdx[compartment]
	if !ok {
		return fmt.Errorf("gate: unknown compartment %q", compartment)
	}
	r.invalidate()
	r.libs[lib] = i
	return nil
}

// CompartmentOf reports the compartment a library lives in.
func (r *Registry) CompartmentOf(lib string) (string, bool) {
	i, ok := r.libs[lib]
	if !ok {
		return "", false
	}
	return r.domains[i].Name, true
}

// Domain returns a compartment's protection domain.
func (r *Registry) Domain(compartment string) (*Domain, bool) {
	i, ok := r.compIdx[compartment]
	if !ok {
		return nil, false
	}
	return r.domains[i], true
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

// SharesByReference is Registry.SharesByReference for the route's pair.
func (rt *Route) SharesByReference() bool {
	return !rt.Crossing || rt.reg.cross.Backend().Transfer() == TransferShare
}

// Route resolves the call site from library fromLib to library toLib.
// Every caller of one pair shares one *Route until the plan changes.
func (r *Registry) Route(fromLib, toLib string) (*Route, error) {
	key := [2]string{fromLib, toLib}
	if rt, ok := r.routes[key]; ok {
		return rt, nil
	}
	from, ok := r.libs[fromLib]
	if !ok {
		return nil, fmt.Errorf("gate: caller library %q not assigned", fromLib)
	}
	to, ok := r.libs[toLib]
	if !ok {
		return nil, fmt.Errorf("gate: callee library %q not assigned", toLib)
	}
	rt := &Route{
		From: r.domains[from], To: r.domains[to],
		FromIdx: from, ToIdx: to,
		Crossing: from != to,
		reg:      r, fromLib: fromLib, toLib: toLib,
	}
	r.routes[key] = rt
	return rt, nil
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
// descriptor (the zero-copy data path). It resolves the pair's route
// and calls through it.
func (r *Registry) CallWithFrame(fromLib, toLib, fnName string, frame CallFrame, fn func() error) error {
	rt, err := r.Route(fromLib, toLib)
	if err != nil {
		return err
	}
	return rt.Call(fnName, frame, fn)
}

// CallBatch resolves the pair's route and runs Route.CallBatch.
func (r *Registry) CallBatch(fromLib, toLib, fnName string, frames []CallFrame, fns []func() error) []error {
	rt, err := r.Route(fromLib, toLib)
	if err != nil {
		errs := make([]error, len(frames))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	return rt.CallBatch(fnName, frames, fns)
}

// observe reports a named call to the observer, when one is set.
func (rt *Route) observe(fnName string) {
	if r := rt.reg; r.observer != nil && fnName != "" {
		r.observer(rt.fromLib, rt.toLib, fnName)
	}
}

// inject fires the registry's injector, when one is armed, for a call
// entering the route's callee. The injection point sits on the callee
// side of the gate: armed faults fire at call entry, before the callee
// mutates state, inside whatever trap boundary the gate provides.
func (rt *Route) inject(fnName string) {
	if in := rt.reg.injector; in != nil {
		in.OnCall(rt.toLib, rt.To.Name, fnName)
	}
}

// crossed counts and traces one physical crossing of the route.
func (rt *Route) crossed() {
	r := rt.reg
	r.pairCount[rt.FromIdx*len(r.domains)+rt.ToIdx]++
	if r.tracer != nil {
		r.tracer(rt.From.Name, rt.To.Name)
	}
}

// Call runs fn in the callee's compartment: a direct call within a
// compartment, a crossing through the backend's gate between two.
func (rt *Route) Call(fnName string, frame CallFrame, fn func() error) error {
	r := rt.reg
	rt.observe(fnName)
	inner := fn
	if r.injector != nil {
		inner = func() error {
			rt.inject(fnName)
			return fn()
		}
	}
	if !rt.Crossing {
		return dispatch(r.direct, rt.From, rt.To, frame, inner)
	}
	rt.crossed()
	if r.meter != nil {
		cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
		err := dispatch(r.cross, rt.From, rt.To, frame, inner)
		r.meter(rt, cpu, r.meterClk.Cycles()-start, 1)
		return err
	}
	return dispatch(r.cross, rt.From, rt.To, frame, inner)
}

// CallBatch routes N calls to the route's callee through one crossing
// where the backend supports it. Same-compartment batches and
// non-amortizing backends (direct, CHERI) degenerate to a loop of
// single calls; the MPK and VM-RPC gates carry the whole batch through
// one domain switch. The returned slice has one entry per frame (nil
// for success) — per-frame semantics (observer, injector, trap
// containment) are identical to N separate calls.
func (rt *Route) CallBatch(fnName string, frames []CallFrame, fns []func() error) []error {
	r := rt.reg
	errs := make([]error, len(frames))
	inners := make([]func() error, len(fns))
	for i, fn := range fns {
		rt.observe(fnName)
		inners[i] = fn
		if r.injector != nil {
			inners[i] = func() error {
				rt.inject(fnName)
				return fn()
			}
		}
	}
	if !rt.Crossing {
		for i := range frames {
			errs[i] = dispatch(r.direct, rt.From, rt.To, frames[i], inners[i])
		}
		return errs
	}
	bg, amortized := r.cross.(BatchGate)
	if !amortized {
		for i := range frames {
			rt.crossed()
			if r.meter != nil {
				cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
				errs[i] = dispatch(r.cross, rt.From, rt.To, frames[i], inners[i])
				r.meter(rt, cpu, r.meterClk.Cycles()-start, 1)
				continue
			}
			errs[i] = dispatch(r.cross, rt.From, rt.To, frames[i], inners[i])
		}
		return errs
	}
	// One physical crossing for the whole batch.
	rt.crossed()
	if r.meter != nil {
		cpu, start := r.meterClk.CurID(), r.meterClk.Cycles()
		errs = bg.CallBatch(rt.From, rt.To, frames, inners)
		r.meter(rt, cpu, r.meterClk.Cycles()-start, len(frames))
		return errs
	}
	return bg.CallBatch(rt.From, rt.To, frames, inners)
}

// Crossings reports the number of inter-compartment crossings between
// the two compartments (directional).
func (r *Registry) Crossings(fromComp, toComp string) uint64 {
	from, okF := r.compIdx[fromComp]
	to, okT := r.compIdx[toComp]
	if !okF || !okT {
		return 0
	}
	return r.pairCount[from*len(r.domains)+to]
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

// CrossingMatrix returns a copy of the per-pair crossing counters,
// holding only the pairs that crossed.
func (r *Registry) CrossingMatrix() map[[2]string]uint64 {
	out := make(map[[2]string]uint64)
	n := len(r.domains)
	for i, c := range r.pairCount {
		if c != 0 {
			out[[2]string{r.domains[i/n].Name, r.domains[i%n].Name}] = c
		}
	}
	return out
}
