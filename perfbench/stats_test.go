package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestTailKeepsTenBeyond checks the reported percentile is the highest
// one with at least ten samples above it, never an extrapolation.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct int
		wantVal float64
		wantOK  bool
	}{
		{n: 1000, wantPct: 95, wantVal: 950, wantOK: true},
		{n: 210, wantPct: 95, wantVal: 200, wantOK: true},
		{n: 200, wantPct: 95, wantVal: 190, wantOK: true},
		{n: 199, wantPct: 94, wantVal: 188, wantOK: true},
		{n: 100, wantPct: 90, wantVal: 90, wantOK: true},
		{n: 20, wantPct: 50, wantVal: 10, wantOK: true},
		{n: 19, wantOK: false},
		{n: 0, wantOK: false},
	} {
		got := tail(seq(tc.n), 95)
		if got.OK != tc.wantOK || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want ok=%v", tc.n, got, tc.wantOK)
			continue
		}
		if !got.OK {
			continue
		}
		if got.Pct != tc.wantPct || got.Value != tc.wantVal {
			t.Errorf("n=%d: got p%d = %v, want p%d = %v", tc.n, got.Pct, got.Value, tc.wantPct, tc.wantVal)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, got.Pct)
		}
	}
}
