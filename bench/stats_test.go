package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25},
		{0.01, 1}, {0.99, 10}, // clamped to the sample range
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{4}, 0.9); got != 4 {
		t.Errorf("quantile of one sample = %g, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	// p75 rests on ten samples from 40 on, p95 from 200 on.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{
		{40, 0.75, 10}, {39, 0.75, 9}, {200, 0.95, 10}, {199, 0.95, 9}, {500, 0.95, 25}, {1, 0.5, 0},
	} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	// op_ms_tail is p75, which a run of 40 or more ops leaves ten beyond;
	// the serve stage p90s rest on the 100–150 requests of a run.
	if got := beyond(40, opTail); got < minBeyond {
		t.Errorf("40 ops leave only %d beyond p%g", got, 100*opTail)
	}
	if got := beyond(100, layerTail); got < minBeyond {
		t.Errorf("%s: 100 requests leave only %d beyond p%g", serveCold.name, got, 100*layerTail)
	}
}
