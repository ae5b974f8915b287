// Design-space renders the paper's Figure 1 idea concretely: the
// security/performance trade-off area of one image, enumerated,
// scored, measured, and drawn as an ASCII scatter. Each point is a
// deployable configuration (an SH-variant combination with its minimal
// coloring); the estimator ranks them and the measured column is the
// actual Redis throughput of the built image.
//
//	go run ./examples/design-space [-backend mpk] [-measure]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"flexos"
	"flexos/internal/harness"
)

func main() {
	backendName := flag.String("backend", "mpk", "isolation backend: none, mpk, hodor, vm, cheri")
	measure := flag.Bool("measure", true, "run each candidate's image (slower)")
	flag.Parse()

	backend, err := flexos.ParseBackend(*backendName)
	if err != nil {
		log.Fatal(err)
	}
	libs := flexos.DefaultImage()
	cands, err := flexos.Explore(libs, backend)
	if err != nil {
		log.Fatal(err)
	}
	w := flexos.DefaultWorkload()

	sorted := append([]*flexos.Candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].EstCycles < sorted[j].EstCycles })

	var measured []harness.AutotunePoint
	if *measure {
		if measured, err = harness.Measure(sorted, harness.AutotuneOpts{Ops: 160, Payload: 50}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("design space of the default image under %v (%d candidates)\n\n", backend, len(cands))
	fmt.Printf("%-9s %-9s %-10s %s\n", "est-slow", "security", "measured", "configuration")
	for i, c := range sorted {
		m := "-"
		if measured != nil {
			m = fmt.Sprintf("%.0f kreq/s", measured[i].KReqPerSec)
		}
		fmt.Printf("%8.2fx %9.1f %-10s %d comps, %d hardened\n",
			c.Slowdown(w), c.Security, m, c.Plan.NumCompartments(), c.HardenedLibs)
	}

	// ASCII scatter: security (rows, high on top) vs estimated cost
	// (columns) — the Figure 1 trade-off area.
	fmt.Println("\nsecurity ^")
	minC, maxC := sorted[0].EstCycles, sorted[len(sorted)-1].EstCycles
	var maxS float64
	for _, c := range cands {
		if c.Security > maxS {
			maxS = c.Security
		}
	}
	const rows, cols = 10, 48
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, c := range cands {
		x := 0
		if maxC > minC {
			x = int(float64(cols-1) * (c.EstCycles - minC) / (maxC - minC))
		}
		y := 0
		if maxS > 0 {
			y = int(float64(rows-1) * c.Security / maxS)
		}
		grid[rows-1-y][x] = '*'
	}
	front := map[*flexos.Candidate]bool{}
	for _, c := range flexos.ParetoFront(cands) {
		front[c] = true
	}
	for _, c := range cands {
		if !front[c] {
			continue
		}
		x := 0
		if maxC > minC {
			x = int(float64(cols-1) * (c.EstCycles - minC) / (maxC - minC))
		}
		y := 0
		if maxS > 0 {
			y = int(float64(rows-1) * c.Security / maxS)
		}
		grid[rows-1-y][x] = 'P' // Pareto-optimal
	}
	for _, row := range grid {
		fmt.Printf("  |%s\n", row)
	}
	fmt.Printf("  +%s> est. cost/op\n", strings.Repeat("-", cols))
	fmt.Println("  P = Pareto-optimal configuration, * = dominated")
}
