package build

import (
	"testing"

	"flexos/internal/core/gate"
	"flexos/internal/rt"
)

// TestRoutedCallAllocatesNothing pins the per-request call path of a
// booted NW|Sched|Rest world on every backend: once a route is
// resolved, a routed call — through the supervisor, the registry, the
// gate and the meter — allocates nothing, whether it crosses
// (netstack -> libc, nw -> core) or stays in one compartment
// (app -> libc).
func TestRoutedCallAllocatesNothing(t *testing.T) {
	for _, b := range []gate.Backend{gate.FuncCall, gate.MPKShared, gate.MPKSwitched, gate.VMRPC, gate.CHERI} {
		t.Run(b.String(), func(t *testing.T) {
			w, err := NewWorld(Config{
				Backend:      b,
				Compartments: NWSchedRest(),
				Alloc:        AllocPerCompartment,
			})
			if err != nil {
				t.Fatal(err)
			}
			m := w.Server
			fn := func() error { return nil }
			for _, c := range []struct {
				name string
				env  *rt.Env
			}{
				{"crossing", m.Env("netstack")},
				{"same-compartment", m.Env("app")},
			} {
				call := func() {
					if err := c.env.CallFn("libc", "noop", 1, fn); err != nil {
						t.Fatal(err)
					}
				}
				// The first call resolves the route and creates the
				// meter's instruments for the pair.
				call()
				if n := testing.AllocsPerRun(100, call); n != 0 {
					t.Errorf("%s call: %v allocs, want 0", c.name, n)
				}
			}
			if got := m.Registry.Crossings("nw", "core"); got != 102 {
				t.Errorf("nw->core crossings = %d, want 102", got)
			}
			if got := m.Registry.TotalCrossings(); got != 102 {
				t.Errorf("total crossings = %d, want 102 (same-compartment calls counted)", got)
			}
			if got := m.MetricsSnapshot().Counter("gate_crossings"); got != 102 {
				t.Errorf("metered crossings = %d, want 102", got)
			}
		})
	}
}
