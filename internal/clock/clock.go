// Package clock provides the virtual time base of the FlexOS simulator.
//
// Every component of the simulated OS charges cycles to a CPU as it does
// real work (copying bytes, computing checksums, switching protection
// domains, running sanitizer checks). Throughput and latency figures are
// derived from the virtual cycle counter, never from wall-clock time, so
// experiments are deterministic and hardware independent.
//
// The time base comes in two granularities. A standalone CPU is one
// virtual processor with its own cycle counter. A Machine is N vCPUs
// sharing one time domain: threads and interrupt work charge the vCPU
// they run on, and the scheduler's conservative discrete-event
// interleaver always resumes the runnable vCPU with the lowest cycle
// count (ties broken by ascending vCPU id), so an SMP run is
// bit-reproducible with no Go-level concurrency. A machine's elapsed
// time is its makespan — the maximum over its vCPU counters.
//
// The clock also keeps a per-component attribution of charged cycles.
// This is what makes Table 1 of the paper (software hardening applied to
// one micro-library at a time) reproducible: the share of total work a
// component performs is measured, not assumed.
package clock

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Component identifies a micro-library (or infrastructure facility) for
// cycle attribution. The set is closed: the constants below are the
// only components, and charging any other value panics. A closed set
// lets every vCPU keep its ledger in a fixed array indexed by
// component, so a charge on the per-request path hashes nothing. The
// type stays a string so ledgers export and sort by name.
type Component string

// Canonical components of the FlexOS image used throughout the
// evaluation. They mirror the micro-library granularity of the paper:
// the network stack, the scheduler, the standard C library, the memory
// allocator, the application itself and the rest of the kernel.
const (
	CompNet   Component = "netstack"
	CompSched Component = "scheduler"
	CompLibC  Component = "libc"
	CompAlloc Component = "alloc"
	CompApp   Component = "app"
	CompRest  Component = "rest"
	CompGate  Component = "gate"
	CompSH    Component = "sh"
	CompVMM   Component = "vmm"
	CompCopy  Component = "copy"
	CompFault Component = "fault"
	// CompIdle attributes the cycles an idle vCPU's counter is
	// fast-forwarded by when a cross-CPU wake arrives from a vCPU whose
	// clock is ahead: waiting, not work.
	CompIdle Component = "idle"
)

// numComponents is the size of the closed component set.
const numComponents = 12

// components lists the closed set in ledger-index order.
var components = [numComponents]Component{
	CompNet, CompSched, CompLibC, CompAlloc, CompApp, CompRest,
	CompGate, CompSH, CompVMM, CompCopy, CompFault, CompIdle,
}

// index reports comp's slot in a ledger, false for a value outside the
// closed set.
func (comp Component) index() (int, bool) {
	switch comp {
	case CompNet:
		return 0, true
	case CompSched:
		return 1, true
	case CompLibC:
		return 2, true
	case CompAlloc:
		return 3, true
	case CompApp:
		return 4, true
	case CompRest:
		return 5, true
	case CompGate:
		return 6, true
	case CompSH:
		return 7, true
	case CompVMM:
		return 8, true
	case CompCopy:
		return 9, true
	case CompFault:
		return 10, true
	case CompIdle:
		return 11, true
	}
	return 0, false
}

// ledger is one vCPU's per-component cycle breakdown. charged has bit
// i set once components[i] was charged, even with 0 cycles: such a
// component is still part of the ledger's key set, which reaches
// attribution rows and fingerprints.
type ledger struct {
	cycles  [numComponents]uint64
	charged uint16
}

// unknownComponent panics for a charge outside the closed set: only a
// simulator bug builds such a component. It is kept out of line so
// the formatting code stays off the charge path.
//
//go:noinline
func unknownComponent(comp Component) {
	panic(fmt.Sprintf("clock: charge to unknown component %q", string(comp)))
}

// each calls fn for every charged component, in index order.
func (l *ledger) each(fn func(Component, uint64)) {
	for i, comp := range components {
		if l.charged&(1<<i) != 0 {
			fn(comp, l.cycles[i])
		}
	}
}

// get reports comp's cycles (0 outside the closed set).
func (l *ledger) get(comp Component) uint64 {
	if i, ok := comp.index(); ok {
		return l.cycles[i]
	}
	return 0
}

// Hz is the frequency of the simulated CPU. The paper's testbed is a
// Xeon Silver 4110 at 2.1 GHz.
const Hz = 2_100_000_000

// CPU is a virtual processor: a cycle counter plus a per-component
// breakdown of where those cycles went. The zero value is ready to use
// as a standalone single-core time domain; NewMachine builds vCPUs that
// share a Machine.
//
// CPU is not safe for concurrent use: the simulator runs on one
// goroutine even when it models several vCPUs — the scheduler's
// deterministic interleaver (lowest cycle count first, ties by vCPU id)
// stands in for hardware parallelism, which keeps runs reproducible.
type CPU struct {
	cycles  uint64
	byComp  ledger
	stopped bool
	id      int
	mach    *Machine // nil for a standalone CPU
}

// New returns a standalone CPU with an empty ledger.
func New() *CPU { return &CPU{} }

// Charge adds cycles to the counter, attributed to comp. comp must be
// one of the canonical components; any other value panics.
func (c *CPU) Charge(comp Component, cycles uint64) {
	i, ok := comp.index()
	if !ok {
		unknownComponent(comp)
	}
	c.cycles += cycles
	c.byComp.cycles[i] += cycles
	c.byComp.charged |= 1 << i
}

// Cycles reports the total number of cycles charged so far.
func (c *CPU) Cycles() uint64 { return c.cycles }

// ID reports the vCPU's index within its machine (0 for a standalone
// CPU).
func (c *CPU) ID() int { return c.id }

// Machine reports the machine this vCPU belongs to, nil for a
// standalone CPU.
func (c *CPU) Machine() *Machine { return c.mach }

// MakeCurrent directs the machine's subsequent charges to this vCPU.
// The scheduler calls it on every dispatch; standalone CPUs ignore it.
func (c *CPU) MakeCurrent() {
	if c.mach != nil {
		c.mach.cur = c
	}
}

// AdvanceTo fast-forwards an idle vCPU's counter to now, attributing
// the gap to CompIdle. The scheduler uses it when a cross-CPU wake
// targets a vCPU whose clock lags the waker: the woken thread cannot
// run before the IPI that made it runnable was sent. A counter already
// at or past now is untouched.
func (c *CPU) AdvanceTo(now uint64) {
	if now <= c.cycles {
		return
	}
	c.Charge(CompIdle, now-c.cycles)
}

// NCPU implements Clock (a standalone CPU is its own time domain).
func (c *CPU) NCPU() int { return 1 }

// CurID implements Clock: the vCPU charges currently land on.
func (c *CPU) CurID() int { return c.id }

// Steer implements Clock; a standalone CPU has nowhere to steer.
func (c *CPU) Steer(int) func() { return func() {} }

// ByComponent returns a copy of the per-component cycle ledger: every
// component charged so far, including those charged 0 cycles.
func (c *CPU) ByComponent() map[Component]uint64 {
	out := make(map[Component]uint64)
	c.byComp.each(func(comp Component, cyc uint64) { out[comp] = cyc })
	return out
}

// Component reports the cycles attributed to a single component.
func (c *CPU) Component(comp Component) uint64 { return c.byComp.get(comp) }

// Reset zeroes the counter and the ledger.
func (c *CPU) Reset() {
	c.cycles = 0
	c.byComp = ledger{}
}

// Elapsed converts the cycle counter to simulated time at Hz.
func (c *CPU) Elapsed() time.Duration {
	return CyclesToDuration(c.cycles)
}

// String formats the ledger, largest consumer first.
func (c *CPU) String() string {
	type row struct {
		comp Component
		cyc  uint64
	}
	var rows []row
	c.byComp.each(func(comp Component, cyc uint64) { rows = append(rows, row{comp, cyc}) })
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cyc != rows[j].cyc {
			return rows[i].cyc > rows[j].cyc
		}
		return rows[i].comp < rows[j].comp
	})
	var b strings.Builder
	fmt.Fprintf(&b, "cpu: %d cycles (%v)", c.cycles, c.Elapsed())
	for _, r := range rows {
		fmt.Fprintf(&b, "\n  %-10s %12d (%5.1f%%)", r.comp, r.cyc,
			100*float64(r.cyc)/float64(max(c.cycles, 1)))
	}
	return b.String()
}

// CyclesToDuration converts cycles at Hz to a duration.
func CyclesToDuration(cycles uint64) time.Duration {
	// cycles / Hz seconds = cycles * 1e9 / Hz nanoseconds.
	// Use float to avoid overflow for large counts.
	return time.Duration(float64(cycles) * 1e9 / Hz)
}

// DurationToCycles converts a duration to cycles at Hz.
func DurationToCycles(d time.Duration) uint64 {
	return uint64(float64(d.Nanoseconds()) * Hz / 1e9)
}

// Nanoseconds reports the simulated time in nanoseconds for a cycle count.
func Nanoseconds(cycles uint64) float64 {
	return float64(cycles) * 1e9 / Hz
}

// GbpsFor reports throughput in gigabits per second for payload bytes
// moved in the given number of cycles.
func GbpsFor(bytes, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / Hz
	return float64(bytes) * 8 / seconds / 1e9
}

// MbpsFor reports throughput in megabits per second.
func MbpsFor(bytes, cycles uint64) float64 {
	return GbpsFor(bytes, cycles) * 1000
}

// OpsPerSec reports operation throughput for ops completed in cycles.
func OpsPerSec(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) / (float64(cycles) / Hz)
}
