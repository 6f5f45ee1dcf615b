package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends operation i at start+due[i] whether or not earlier ones
// have been answered — independent web users — over at most conns
// connections (one worker each). Every operation is timed from when it
// was DUE, so an operation that had to wait for a free connection behind
// a stalled server is charged that wait (no coordinated omission).
//
// genLate records only the generator's own lateness: how long after its
// due time an operation was sent although a connection had been waiting
// for it. When that is large the host, not the system, set the latencies,
// and the compare tool reports the open-loop metrics as unresolved.
type openLoop struct {
	due   []time.Duration
	conns int
	// do runs operation i on connection c and reports whether it counts
	// (pages and writes are recorded apart by the caller through rec).
	do func(c, i int)
	// rec receives operation i's latency from its due time.
	rec func(c, i int, fromDue time.Duration)
	// sleep waits for a due time (time.Sleep unless a test injects a
	// generator that oversleeps).
	sleep func(time.Duration)

	genLate []hist // per connection
}

func (o *openLoop) run() time.Duration {
	o.genLate = make([]hist, o.conns)
	sleep := o.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(o.due) {
					return
				}
				dueAt := start.Add(o.due[i])
				if wait := time.Until(dueAt); wait > 0 {
					sleep(wait)
					o.genLate[c].record(time.Since(dueAt))
				} else {
					// Every connection was busy when the operation fell
					// due: the lateness is the system's, not ours.
					o.genLate[c].record(0)
				}
				o.do(c, i)
				o.rec(c, i, time.Since(dueAt))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func (o *openLoop) genLateHist() *hist {
	var h hist
	for i := range o.genLate {
		h.merge(&o.genLate[i])
	}
	return &h
}

// closedLoop runs conns callers that each send their next operation only
// after the previous one was answered, until the duration is over (or, when
// limit > 0, until limit operations were started). It returns the number
// of operations started and the wall time.
func closedLoop(conns int, dur time.Duration, limit int, do func(c, i int)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for dur <= 0 || time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				do(c, i)
			}
		}(c)
	}
	wg.Wait()
	started := int(next.Load())
	if limit > 0 && started > limit {
		started = limit
	}
	return started, time.Since(start)
}

// poissonDue draws the due times of independent users arriving at a mean
// rate (ops/s) for the given span: exponential gaps from the run's seed.
func poissonDue(rng *rand.Rand, span time.Duration, rate float64) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}

// windowHist keeps one histogram per window of the time an operation was
// due. A metric is then a quartile over the windows of each window's
// quantile — the quartile on the good side, because what disturbs a
// shared host (other tenants, writeback) only ever makes a window worse:
// seconds in which the host stalled move those windows, not the run's
// figure.
type windowHist struct {
	mu    sync.Mutex
	width time.Duration
	w     []hist
}

func newWindowHist(span, width time.Duration) *windowHist {
	n := int(span / width)
	if n < 1 {
		n = 1
	}
	return &windowHist{width: width, w: make([]hist, n)}
}

func (w *windowHist) record(dueAt, d time.Duration) {
	i := int(dueAt / w.width)
	if i >= len(w.w) { // the tail shorter than a window joins the last one
		i = len(w.w) - 1
	}
	w.mu.Lock()
	w.w[i].record(d)
	w.mu.Unlock()
}

func (w *windowHist) total() *hist {
	var h hist
	for i := range w.w {
		h.merge(&w.w[i])
	}
	return &h
}

// quantile is the lower quartile over the windows of their q-quantiles.
func (w *windowHist) quantile(q float64) time.Duration { return w.quantileOver(q, 1) }

// quantileOver does the same over groups of consecutive windows merged
// group at a time: a tail percentile needs more samples under it than a
// median does.
func (w *windowHist) quantileOver(q float64, group int) time.Duration {
	var qs []float64
	for i := 0; i < len(w.w); i += group {
		var h hist
		for j := i; j < i+group && j < len(w.w); j++ {
			h.merge(&w.w[j])
		}
		if h.count() > 0 {
			qs = append(qs, float64(h.quantile(q)))
		}
	}
	return time.Duration(quartile(qs, 1))
}

// every calls tick each width on a goroutine of its own until the returned
// stop is called; stop waits for the goroutine to end.
func every(width time.Duration, tick func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(width)
		defer tk.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tk.C:
				tick()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// rateSampler reads an operation counter and the process's CPU time every
// width while a closed loop runs, so that throughput and CPU per operation
// can be reported as quartiles over windows (the good side, as above).
type rateSampler struct {
	stop  func()
	count func() int64
	rate  []float64 // operations per second, per window
	cpu   []float64 // CPU milliseconds per operation, per window

	firstN, lastN     int64
	firstT, lastT     time.Time
	firstCPU, lastCPU time.Duration
}

func startRateSampler(width time.Duration, count func() int64) *rateSampler {
	s := &rateSampler{count: count}
	s.firstN, s.firstT, s.firstCPU = count(), time.Now(), readProc().cpu
	s.lastN, s.lastT, s.lastCPU = s.firstN, s.firstT, s.firstCPU
	s.stop = every(width, func() {
		n, now, cpu := count(), time.Now(), readProc().cpu
		if n > s.lastN {
			s.rate = append(s.rate, float64(n-s.lastN)/now.Sub(s.lastT).Seconds())
			s.cpu = append(s.cpu, ms(cpu-s.lastCPU)/float64(n-s.lastN))
		}
		s.lastN, s.lastT, s.lastCPU = n, now, cpu
	})
	return s
}

// finish stops sampling and returns the upper-quartile window rate and the
// lower-quartile CPU cost. A run too short for three windows reports its
// totals.
func (s *rateSampler) finish() (ratePerSec, cpuMsPerOp float64, windows int) {
	s.stop()
	if n := s.count(); len(s.rate) < 3 && n > s.firstN {
		return float64(n-s.firstN) / time.Since(s.firstT).Seconds(),
			ms(readProc().cpu-s.firstCPU) / float64(n-s.firstN), 1
	}
	return quartile(s.rate, 3), quartile(s.cpu, 1), len(s.rate)
}

// quartile returns the k-th quartile (1, 2 or 3) of xs, interpolated
// between order statistics.
func quartile(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(k) / 4 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
