package main

import (
	"math/bits"
	"time"
)

// hist is a log-bucket latency histogram: 64 sub-buckets per power of two
// of nanoseconds, so every recorded value is known to within 1.6 % while a
// run of any length costs a fixed 4096 counters. It is the one percentile
// instrument of this harness (ROADMAP item 1 wants it to replace the
// pctile/pctMs/pctUs helpers of internal/bench later).
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64 // nanoseconds
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketOf maps a nanosecond value to its bucket; values below histSub
// are exact.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	sub := int(v>>(exp-histSubBits)) & (histSub - 1)
	return (exp-histSubBits+1)*histSub + sub
}

// bucketBounds returns the half-open nanosecond range [lo, hi) of bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b < histSub {
		return int64(b), int64(b) + 1
	}
	exp := b/histSub + histSubBits - 1
	sub := int64(b % histSub)
	width := int64(1) << (exp - histSubBits)
	lo = (histSub + sub) * width
	return lo, lo + width
}

func (h *hist) record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) count() int64 { return h.n }

func (h *hist) mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return time.Duration(h.sum / h.n)
}

// quantile returns the q-quantile (0 < q <= 1), interpolated by rank
// inside the bucket that holds it, and never above the largest value seen.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n) // the value below which rank samples fall
	var seen float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketBounds(b)
			v := float64(lo) + (rank-seen)/float64(c)*float64(hi-lo)
			if int64(v) > h.max {
				return time.Duration(h.max)
			}
			return time.Duration(v)
		}
		seen += float64(c)
	}
	return time.Duration(h.max)
}

// above returns the share of samples strictly slower than d's bucket.
func (h *hist) above(d time.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	var n int64
	for b := bucketOf(int64(d)) + 1; b < histBuckets; b++ {
		n += h.counts[b]
	}
	return float64(n) / float64(h.n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
