package main

import (
	"math/rand"
	"testing"
)

func TestPercentilesNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	p := NewPercentiles(samples)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 1}, {1, 1}, {50, 50}, {50.5, 51}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100},
	} {
		if got := p.At(c.q); got != c.want {
			t.Errorf("At(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if p.N() != 100 {
		t.Errorf("N = %d, want 100", p.N())
	}
	if samples[0] == 1 && samples[99] == 100 {
		t.Error("input was sorted in place")
	}
}

func TestPercentilesSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		p := NewPercentiles(make([]float64, c.n))
		if got := p.Supported(); got != c.want {
			t.Errorf("n=%d: Supported = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedianEmpty(t *testing.T) {
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %g, want 0", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}
