package main

import (
	"sync"
	"testing"
	"time"
)

// A server that stalls for 200 ms: every operation that fell due during
// the stall must be charged the wait from its due time (no coordinated
// omission), and none of it may be booked as the generator's lateness.
func TestOpenLoopChargesAStallToEveryOperationDueDuringIt(t *testing.T) {
	const (
		n         = 400
		gap       = time.Millisecond
		stallFrom = 100 * time.Millisecond
		stallTo   = 300 * time.Millisecond
	)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	lat := make([]time.Duration, n)
	var start time.Time
	ol := &openLoop{
		due: due, conns: 2,
		do: func(_, _ int) {
			if at := time.Since(start); at >= stallFrom && at < stallTo {
				time.Sleep(stallTo - at)
			}
		},
		rec: func(_, i int, d time.Duration) { lat[i] = d },
	}
	start = time.Now()
	ol.run()

	charged := 0
	for i, d := range due {
		if d < stallFrom+5*time.Millisecond || d >= stallTo {
			continue
		}
		charged++
		// Due during the stall: answered no earlier than the stall's end.
		if want := stallTo - d - 2*time.Millisecond; lat[i] < want {
			t.Fatalf("operation %d due at %v was charged %v, less than the %v it waited for the stalled server",
				i, d, lat[i], want)
		}
	}
	if charged < 150 {
		t.Fatalf("only %d operations fell due during the stall", charged)
	}
	if late := ol.genLateHist().quantile(0.99); late > 50*time.Millisecond {
		t.Errorf("generator lateness p99 = %v: the server's stall was booked to the generator", late)
	}
}

// A generator that oversleeps is late by its own doing, and says so.
func TestOpenLoopReportsItsOwnLateness(t *testing.T) {
	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * 5 * time.Millisecond
	}
	ol := &openLoop{
		due: due, conns: 1,
		do:    func(_, _ int) {},
		rec:   func(_, _ int, _ time.Duration) {},
		sleep: func(d time.Duration) { time.Sleep(d + 20*time.Millisecond) },
	}
	ol.run()
	if late := ol.genLateHist().quantile(0.99); late < 15*time.Millisecond {
		t.Errorf("generator overslept 20 ms per wait but reports p99 lateness %v", late)
	}
}

func TestClosedLoopStopsAtItsLimit(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	n, _ := closedLoop(3, 0, 100, func(_, i int) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if n != 100 || len(seen) != 100 {
		t.Fatalf("started %d operations, %d distinct, want 100", n, len(seen))
	}
}

func TestWindowHistUsesTheGoodSideQuartile(t *testing.T) {
	w := newWindowHist(8*time.Second, time.Second)
	for win := 0; win < 8; win++ {
		d := 10 * time.Millisecond
		if win >= 5 { // three disturbed seconds
			d = 80 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			w.record(time.Duration(win)*time.Second, d)
		}
	}
	if got := w.quantile(0.5); got > 11*time.Millisecond {
		t.Errorf("three disturbed windows of eight moved the figure to %v", got)
	}
	if got := w.total().count(); got != 400 {
		t.Errorf("total %d samples", got)
	}
}
