// Command benchdiff is the CI bench-regression gate: it runs the
// repo's headline benchmarks (design-space exploration and the
// zero-copy data path), takes the median of -count runs per metric,
// and fails if any metric regresses beyond its baseline tolerance.
//
// Usage:
//
//	benchdiff [-baseline BENCH_gate.json] [-input saved-bench.txt] [-json benchdiff.json]
//
// -json writes the per-entry comparison (baseline, median, delta,
// tolerance, status) as machine-readable JSON — the CI artifact other
// tooling diffs across runs. When $GITHUB_STEP_SUMMARY is set the same
// comparison is appended there as a markdown table, so every PR shows
// the bench gate's verdict inline.
//
// Without -input it runs
//
//	go test -run=NONE -bench='^(BenchmarkExplore|BenchmarkFig3DataPath|BenchmarkOverload|BenchmarkGateCall|BenchmarkGateCallBatch|BenchmarkBatching|BenchmarkSmp|BenchmarkChaosnet|BenchmarkAutotune|BenchmarkBoot)$' -benchtime=1x -count=3 .
//
// in the current directory. With -input it checks a saved `go test
// -bench` output instead — which is also how the gate itself is
// tested: feeding it a synthetic 2x slowdown must make it exit 1.
//
// Baselines carry per-entry tolerances: simulator metrics (sim-Mbps,
// cache-hit-%) are deterministic and get the tight default, while
// wall-clock ns/op entries get a wide one because single-iteration
// wall time on shared CI runners is noisy. An entry is one-sided
// (direction "lower" or "higher": only a move the wrong way fails),
// except that a zero baseline must stay exactly zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// check is one baseline assertion on one benchmark metric.
type check struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// Direction is "lower" (lower is better: ns/op) or "higher"
	// (higher is better: sim-Mbps, cache-hit-%).
	Direction string `json:"direction"`
	// TolerancePct overrides the file-level threshold for this check.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

// baseline is the committed gate file.
type baseline struct {
	Protocol     string             `json:"protocol"`
	ThresholdPct float64            `json:"threshold_pct"`
	Entries      map[string][]check `json:"entries"`
}

// result is one metric's comparison outcome, exported via -json and
// the GitHub step summary.
type result struct {
	Benchmark    string  `json:"benchmark"`
	Metric       string  `json:"metric"`
	Baseline     float64 `json:"baseline"`
	Median       float64 `json:"median"`
	DeltaPct     float64 `json:"delta_pct"`
	TolerancePct float64 `json:"tolerance_pct"`
	Direction    string  `json:"direction"`
	// Status is "ok", "fail" or "missing".
	Status string `json:"status"`
}

// report is the -json document.
type report struct {
	BaselineFile string   `json:"baseline_file"`
	Protocol     string   `json:"protocol"`
	ThresholdPct float64  `json:"threshold_pct"`
	Results      []result `json:"results"`
	Failures     int      `json:"failures"`
}

func main() {
	baseFile := flag.String("baseline", "BENCH_gate.json", "baseline file")
	input := flag.String("input", "", "check a saved go test -bench output instead of running")
	count := flag.Int("count", 3, "bench -count when running")
	jsonOut := flag.String("json", "", "write the per-entry comparison as JSON to this file")
	flag.Parse()

	base, err := loadBaseline(*baseFile)
	if err != nil {
		fatal(err)
	}
	var out string
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		out = string(b)
	} else {
		out, err = runBenches(*count)
		if err != nil {
			fatal(err)
		}
	}
	medians := parseBenchOutput(out)
	rep := report{BaselineFile: *baseFile, Protocol: base.Protocol, ThresholdPct: base.ThresholdPct}
	fmt.Printf("%-44s %-12s %12s %12s %8s %s\n",
		"benchmark", "metric", "baseline", "median", "delta", "status")
	names := make([]string, 0, len(base.Entries))
	for name := range base.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range base.Entries[name] {
			tol := c.TolerancePct
			if tol == 0 {
				tol = base.ThresholdPct
			}
			r := result{
				Benchmark: name, Metric: c.Metric, Baseline: c.Value,
				TolerancePct: tol, Direction: c.Direction, Status: "ok",
			}
			med, ok := medians[name][c.Metric]
			if !ok {
				fmt.Printf("%-44s %-12s %12.1f %12s %8s MISSING\n",
					name, c.Metric, c.Value, "-", "-")
				r.Status = "missing"
				rep.Failures++
				rep.Results = append(rep.Results, r)
				continue
			}
			r.Median = med
			delta, regressed := compare(c, med, tol)
			r.DeltaPct = delta
			status := "ok"
			if regressed {
				status = fmt.Sprintf("FAIL (>%g%%)", tol)
				r.Status = "fail"
				rep.Failures++
			}
			fmt.Printf("%-44s %-12s %12.1f %12.1f %+7.1f%% %s\n",
				name, c.Metric, c.Value, med, delta, status)
			rep.Results = append(rep.Results, r)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &rep); err != nil {
			fatal(err)
		}
	}
	if err := writeStepSummary(&rep); err != nil {
		fatal(err)
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond tolerance\n", rep.Failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: all metrics within tolerance")
}

// compare returns med's change from c's baseline in percent and
// whether that change fails the check at tolerance tol.
func compare(c check, med, tol float64) (deltaPct float64, regressed bool) {
	if c.Value == 0 {
		// A zero baseline (e.g. copy-cycles on the shared data path)
		// must stay zero.
		return 0, med != 0
	}
	delta := 100 * (med - c.Value) / c.Value
	switch c.Direction {
	case "higher":
		return delta, delta < -tol
	default: // lower-is-better: growth is regression
		return delta, delta > tol
	}
}

// writeJSON writes the machine-readable comparison.
func writeJSON(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeStepSummary appends a markdown table of the comparison to
// $GITHUB_STEP_SUMMARY when set (no-op elsewhere), so the gate's
// verdict renders on the PR's checks page.
func writeStepSummary(rep *report) error {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	verdict := "all metrics within tolerance ✅"
	if rep.Failures > 0 {
		verdict = fmt.Sprintf("%d metric(s) regressed beyond tolerance ❌", rep.Failures)
	}
	fmt.Fprintf(&b, "### Bench regression gate (%s)\n\n%s\n\n", rep.BaselineFile, verdict)
	b.WriteString("| benchmark | metric | baseline | median | delta | tolerance | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
	for _, r := range rep.Results {
		med, delta := "-", "-"
		if r.Status != "missing" {
			med = fmt.Sprintf("%.1f", r.Median)
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
		}
		status := r.Status
		if r.Status != "ok" {
			status = "**" + r.Status + "**"
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f | %s | %s | %g%% | %s |\n",
			r.Benchmark, r.Metric, r.Baseline, med, delta, r.TolerancePct, status)
	}
	b.WriteString("\n")
	_, err = f.WriteString(b.String())
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

func loadBaseline(path string) (*baseline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.ThresholdPct <= 0 {
		base.ThresholdPct = 25
	}
	for name, checks := range base.Entries {
		for _, c := range checks {
			switch c.Direction {
			case "lower", "higher":
			default:
				return nil, fmt.Errorf("%s: %s %s: unknown direction %q", path, name, c.Metric, c.Direction)
			}
		}
	}
	return &base, nil
}

func runBenches(count int) (string, error) {
	cmd := exec.Command("go", "test", "-run=NONE",
		"-bench=^(BenchmarkExplore|BenchmarkFig3DataPath|BenchmarkOverload|BenchmarkGateCall|BenchmarkGateCallBatch|BenchmarkBatching|BenchmarkSmp|BenchmarkChaosnet|BenchmarkAutotune|BenchmarkBoot)$",
		"-benchtime=1x", fmt.Sprintf("-count=%d", count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("bench run failed: %w\n%s", err, out)
	}
	return string(out), nil
}

// parseBenchOutput collects every sample per (benchmark, metric) from
// standard `go test -bench` output and reduces each to its median.
// Benchmark names are normalized by stripping the -GOMAXPROCS suffix.
func parseBenchOutput(out string) map[string]map[string]float64 {
	samples := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if samples[name] == nil {
				samples[name] = map[string][]float64{}
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	medians := map[string]map[string]float64{}
	for name, metrics := range samples {
		medians[name] = map[string]float64{}
		for unit, vs := range metrics {
			sort.Float64s(vs)
			medians[name][unit] = vs[len(vs)/2]
		}
	}
	return medians
}
