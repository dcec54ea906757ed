package main

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	if got := medianIn([]time.Duration{3 * time.Second, time.Second, 2 * time.Second}, time.Second); got != 2 {
		t.Errorf("medianIn = %v", got)
	}
}

// TestInterleave: every 100-step block of the fleet's walk holds the
// fleet's mix, so throughput does not depend on where a window ends.
func TestInterleave(t *testing.T) {
	counts := []int{850, 140, 10}
	order := interleave(counts)
	if len(order) != 1000 {
		t.Fatalf("order has %d entries", len(order))
	}
	for block := 0; block < 10; block++ {
		got := make([]int, len(counts))
		for _, class := range order[100*block : 100*(block+1)] {
			got[class]++
		}
		if got[0] != 85 || got[1] != 14 || got[2] != 1 {
			t.Errorf("block %d holds %v, want [85 14 1]", block, got)
		}
	}
}

// TestSliceMedians: the reported timings are medians over the slices of
// the timed clock, so a burst confined to one slice does not move them.
func TestSliceMedians(t *testing.T) {
	rec := newRecorder()
	rec.busy = 10 * time.Second
	for i := 0; i < 1000; i++ {
		lat := 10 * time.Millisecond
		if i >= 200 && i < 400 {
			lat = 50 * time.Millisecond // a disturbed slice
		}
		rec.latency = append(rec.latency, lat)
		rec.at = append(rec.at, time.Duration(i)*10*time.Millisecond)
	}
	vals := endToEndValues(&outcome{rec: rec}, []time.Duration{time.Second, 3 * time.Second, 2 * time.Second})
	if vals["plan_ms_p50"] != 10 || vals["plan_ms_p95"] != 10 {
		t.Errorf("p50 %v p95 %v, want 10 and 10", vals["plan_ms_p50"], vals["plan_ms_p95"])
	}
	if vals["plans_per_s"] != 100 {
		t.Errorf("plans_per_s %v, want 100", vals["plans_per_s"])
	}
	if vals["setup_s"] != 2 {
		t.Errorf("setup_s %v, want the median 2", vals["setup_s"])
	}
}
