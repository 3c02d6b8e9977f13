package main

import "sort"

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is an extrapolation.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailStat is a reported tail percentile: the value at nearest-rank
// percentile Pct of N samples. OK is false when no percentile from 50
// up has minBeyond samples above it.
type tailStat struct {
	Value float64
	Pct   int
	N     int
	OK    bool
}

// tail returns the highest whole percentile no greater than maxPct
// that has at least minBeyond samples strictly above its rank, with
// the sample count. A run too short for p95 therefore reports, say,
// p92 and says so, instead of quoting an extrapolated p95.
func tail(xs []float64, maxPct int) tailStat {
	s := sortedCopy(xs)
	n := len(s)
	for p := maxPct; p >= 50; p-- {
		idx := rankIndex(n, p)
		if n-1-idx >= minBeyond {
			return tailStat{Value: s[idx], Pct: p, N: n, OK: true}
		}
	}
	return tailStat{N: n}
}

// rankIndex is the nearest-rank index of percentile p among n sorted
// samples: the smallest index with at least p% of samples at or below
// it.
func rankIndex(n, p int) int {
	idx := (p*n+99)/100 - 1 // ceil(p*n/100) - 1 in exact integers
	if idx < 0 {
		idx = 0
	}
	return idx
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
