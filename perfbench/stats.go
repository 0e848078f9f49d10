package main

import (
	"fmt"
	"sort"
)

// tailLadder holds the candidate tail percentiles in per mille, highest
// first. A fixed ladder keeps the reported percentile the same from run
// to run when the sample count moves a little.
var tailLadder = []int{999, 990, 950, 900}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the perMille percentile
// among n samples.
func rank(n, perMille int) int {
	r := (n*perMille + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPerMille returns the highest ladder percentile with at least
// minBeyond of n samples beyond it.
func tailPerMille(n int) (int, bool) {
	for _, pm := range tailLadder {
		if n-rank(n, pm) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank perMille percentile of sorted.
func percentile(sorted []float64, perMille int) float64 {
	return sorted[rank(len(sorted), perMille)-1]
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a reported tail percentile with the sample count behind it.
type tail struct {
	Name     string  `json:"name"`
	PerMille int     `json:"per_mille"`
	Samples  int     `json:"samples"`
	Value    float64 `json:"value"`
}

func (t tail) String() string {
	p := fmt.Sprintf("p%d", t.PerMille/10)
	if t.PerMille%10 != 0 {
		p = fmt.Sprintf("p%.1f", float64(t.PerMille)/10)
	}
	return fmt.Sprintf("%s of %d samples", p, t.Samples)
}

// tailOf computes the tail metric name over xs; ok is false when xs is
// too small for any ladder percentile.
func tailOf(name string, xs []float64) (tail, bool) {
	pm, ok := tailPerMille(len(xs))
	if !ok {
		return tail{}, false
	}
	return tail{Name: name, PerMille: pm, Samples: len(xs), Value: percentile(sortedCopy(xs), pm)}, true
}
