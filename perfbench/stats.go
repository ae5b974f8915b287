package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the R-7 / NumPy default rule); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// kendallTau is Kendall's tau-b between two paired samples: +1 when
// they order the pairs identically, -1 when exactly reversed, with ties
// corrected for.
func kendallTau(x, y []float64) float64 {
	var concordant, discordant, tiesX, tiesY float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			dx, dy := sign(x[i]-x[j]), sign(y[i]-y[j])
			switch {
			case dx == 0 && dy == 0:
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case dx == dy:
				concordant++
			default:
				discordant++
			}
		}
	}
	den := math.Sqrt((concordant + discordant + tiesX) * (concordant + discordant + tiesY))
	if den == 0 {
		return 0
	}
	return (concordant - discordant) / den
}

func sign(v float64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
