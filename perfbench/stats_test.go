package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileHandComputed(t *testing.T) {
	for _, tc := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{1, 2}, 0.5, 1.5},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75}, // pos 0.75
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{10, 20, 30, 40, 50}, 0.9, 46}, // pos 3.6
	} {
		if got := quantile(tc.sorted, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestPercentilesHandComputed(t *testing.T) {
	// 1..100 shuffled: median 50.5; p90 sits at rank position 89.1, between
	// 90 and 91, with exactly 10 samples beyond it.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64((i*37)%100 + 1)
	}
	p50, tail, err := percentiles(s, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !near(p50, 50.5) || !near(tail, 90.1) {
		t.Fatalf("p50 %g p90 %g, want 50.5 and 90.1", p50, tail)
	}
	if s[0] != 1 || s[1] != 38 {
		t.Fatalf("percentiles reordered its input: %v", s[:2])
	}

	// p95 of the same 100 samples has only 5 beyond it: refuse.
	if _, _, err := percentiles(s, 95); err == nil {
		t.Fatal("p95 of 100 samples accepted with 5 beyond it")
	}
	if _, _, err := percentiles(nil, 50); err == nil {
		t.Fatal("empty sample set accepted")
	}
}

func TestTailNeverBelowMedian(t *testing.T) {
	// A bimodal set whose slow mode holds 30%: the tail lands in the slow
	// mode, the median in the fast one, and the tail never reads below it.
	var s []float64
	for i := 0; i < 700; i++ {
		s = append(s, 12+float64(i%7)*0.01)
	}
	for i := 0; i < 300; i++ {
		s = append(s, 19.5+float64(i%3)*0.01)
	}
	p50, p99, err := percentiles(s, 99)
	if err != nil {
		t.Fatal(err)
	}
	if p50 < 12 || p50 > 12.07 || p99 < 19.5 || p99 > 19.52 {
		t.Fatalf("p50 %g p99 %g", p50, p99)
	}
	// A constant set: tail equals median exactly.
	c := make([]float64, 50)
	for i := range c {
		c[i] = 3
	}
	p50, p80, err := percentiles(c, 80)
	if err != nil || p50 != 3 || p80 != 3 {
		t.Fatalf("constant set: p50 %g p80 %g err %v", p50, p80, err)
	}
}

func TestMedianOdd(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %g, want 3", got)
	}
}
