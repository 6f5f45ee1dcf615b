package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The histogram against exact sorted percentiles: log-normal latencies
// spanning microseconds to seconds.
func TestHistQuantilesMatchSortedPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	vals := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := math.Exp(rng.NormFloat64()*2 + 13) // median ~0.44 ms
		vals = append(vals, v)
		h.record(time.Duration(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := float64(h.quantile(q))
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q=%g: histogram %v, exact %v (off by %.2f%%)", q, time.Duration(got), time.Duration(exact), 100*rel)
		}
	}
	if h.count() != 50000 {
		t.Errorf("count %d", h.count())
	}
	if got, want := float64(h.quantile(1)), vals[len(vals)-1]; got > want {
		t.Errorf("q=1 reads %v, above the largest value %v", got, want)
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	prevHi := int64(0)
	for b := 0; b < histBuckets; b++ {
		lo, hi := bucketBounds(b)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", b, lo, prevHi)
		}
		if hi <= 0 { // the last buckets run past int64
			break
		}
		if bucketOf(lo) != b || bucketOf(hi-1) != b {
			t.Fatalf("bucket %d [%d,%d) does not hold its own bounds", b, lo, hi)
		}
		if lo >= histSub && float64(hi-lo)/float64(lo) > 1.0/histSub+1e-9 {
			t.Fatalf("bucket %d is %.2f%% wide", b, 100*float64(hi-lo)/float64(lo))
		}
		prevHi = hi
	}
}

func TestHistMergeAndAbove(t *testing.T) {
	var a, b hist
	for i := 1; i <= 100; i++ {
		a.record(time.Duration(i) * time.Millisecond)
		b.record(time.Duration(i) * time.Second)
	}
	a.merge(&b)
	if a.count() != 200 {
		t.Fatalf("merged count %d", a.count())
	}
	if got := a.above(500 * time.Millisecond); got != 0.5 {
		t.Errorf("share above 500ms = %v, want 0.5", got)
	}
}

func TestQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for k, want := range map[int]float64{1: 2, 2: 3, 3: 4} {
		if got := quartile(xs, k); got != want {
			t.Errorf("quartile %d = %v, want %v", k, got, want)
		}
	}
	if got := quartile(nil, 2); got != 0 {
		t.Errorf("quartile of nothing = %v", got)
	}
}
