package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
	"flexos/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// fingerprintGolden holds one SHA-256 per experiment entry point.
var fingerprintGolden = filepath.Join("testdata", "fingerprints.json")

// fingerprints are the experiment entry points whose full results are
// pinned bit for bit. Each returns a value whose encoding/json form is
// hashed. Entry points whose Go result type is not part of the stable
// surface hash a plain value built from the numbers instead, so the
// golden survives a change of type.
var fingerprints = []struct {
	name string
	run  func() (any, error)
}{
	{"fig3", func() (any, error) { return Fig3(true) }},
	{"table1", func() (any, error) { return Table1() }},
	{"fig4", func() (any, error) { return Fig4(64) }},
	{"fig5", func() (any, error) { return Fig5(64) }},
	{"ctxswitch", func() (any, error) { return CtxSwitch() }},
	{"datapath", func() (any, error) { return DataPath(true) }},
	{"batching", func() (any, error) { return Batching(true) }},
	{"smp", func() (any, error) { return Smp(true) }},
	{"chaosnet", func() (any, error) { return Chaosnet(true) }},
	{"overload", func() (any, error) { return Overload() }},
	{"blastradius", func() (any, error) { return BlastRadius() }},
	{"autotune", func() (any, error) {
		opt := DefaultAutotuneOpts(true)
		opt.Workers = 2
		return Autotune(opt)
	}},
	{"observe-default", func() (any, error) { return observeFingerprint("default") }},
	{"observe-smp", func() (any, error) { return observeFingerprint("smp") }},
	{"redis-parallel", fingerprintRedisParallel},
	{"measure-front", fingerprintMeasureFront},
	{"measure-workload", func() (any, error) {
		w, err := MeasureWorkload(50, 64)
		if err != nil {
			return nil, err
		}
		rates := make(map[string]float64, len(w.CallRates))
		for pair, r := range w.CallRates {
			rates[pair[0]+"->"+pair[1]] = r
		}
		return map[string]any{"base": w.BaseCycles, "rates": rates, "shtax": w.SHTax}, nil
	}},
	{"autospec", func() (any, error) {
		_, rendered, err := RecordRedisMetadata(50, 64)
		return rendered, err
	}},
}

// observeFingerprint pairs each observation with its trace events,
// which the Observation encoding leaves out.
func observeFingerprint(exp string) (any, error) {
	obs, err := ObserveFor(exp, true)
	if err != nil {
		return nil, err
	}
	events := make([][]trace.Event, len(obs))
	for i, o := range obs {
		events[i] = o.Events
	}
	return map[string]any{"observations": obs, "events": events}, nil
}

// fingerprintRedisParallel is one multi-connection redis case: 8
// connections of 64 alternating SET/GETs on a 4-vCPU MPK-shared image.
func fingerprintRedisParallel() (any, error) {
	cfg := build.Config{Compartments: build.NWOnly(), Backend: gate.MPKShared,
		Alloc: build.AllocPerCompartment, Smp: 4}
	r, err := Run(Scenario{Config: cfg, Workload: RedisConns{Conns: 8, Ops: 64, Payload: 256}})
	if err != nil {
		return nil, err
	}
	var perCPU []uint64
	for _, cpu := range r.World.Server.Clock.CPUs() {
		perCPU = append(perCPU, cpu.Cycles())
	}
	return map[string]any{
		"vcpus": r.World.Server.Clock.NCPU(), "conns": 8, "ops": r.Ops, "makespan": r.Cycles,
		"kops": float64(r.Ops) / (clock.Nanoseconds(r.Cycles) / 1e9) / 1e3, "percpu": perCPU,
		"steals": r.World.Sched.Steals(), "ipis": r.World.Sched.IPIs(),
	}, nil
}

// fingerprintMeasureFront measures the MPK-shared static Pareto front
// under redis GET (50 B values, 160 requests): kreq/s per candidate in
// front order and the slowdown against the first.
func fingerprintMeasureFront() (any, error) {
	cands, err := explore.Explore(spec.DefaultImage(), gate.MPKShared, explore.DefaultWorkload())
	if err != nil {
		return nil, err
	}
	points, err := Measure(explore.ParetoFront(cands), AutotuneOpts{Ops: 160, Payload: 50})
	if err != nil {
		return nil, err
	}
	var kreq, slow []float64
	for _, p := range points {
		kreq = append(kreq, p.KReqPerSec)
		slow = append(slow, points[0].KReqPerSec/p.KReqPerSec)
	}
	return map[string]any{"kreq": kreq, "slowdown": slow}, nil
}

// TestFingerprints pins every experiment's full result: a refactor
// that moves any simulated number changes a hash. Regenerate with
// go test ./internal/harness -run TestFingerprints -update, and record
// why the behaviour changed.
func TestFingerprints(t *testing.T) {
	got := make(map[string]string, len(fingerprints))
	for _, fp := range fingerprints {
		t.Run(fp.name, func(t *testing.T) {
			v, err := fp.run()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got[fp.name] = hex.EncodeToString(sum[:])
		})
	}
	if t.Failed() {
		return
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run TestFingerprints -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: fingerprint %s, golden %s", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden entry has no fingerprint", name)
		}
	}
}
