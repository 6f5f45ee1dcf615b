// Package sim is a discrete-event simulation kernel with goroutine-based
// processes and resource models (processor-sharing CPUs, links, semaphores).
//
// The experiment harness uses sim to replay the paper's 2003 testbed (SUN
// E3000 database server, PIII web servers, 96 client workstations, 100 Mb/s
// Ethernet) in virtual time: the real HEDC components execute for
// correctness, while calibrated resource demands are accounted here so that
// throughput and latency curves with the paper's shape emerge in
// milliseconds of wall-clock time.
//
// The kernel is strictly single-threaded in the logical sense: exactly one
// process (or event callback) runs at a time, and control is handed back to
// the scheduler explicitly. Simulations are therefore deterministic for a
// fixed seed and workload.
package sim

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback in virtual time. seq breaks ties so that
// events scheduled earlier run earlier, keeping runs deterministic.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel owns the virtual clock and the event queue.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    float64
	events eventHeap
	seq    int64

	// process handoff: the kernel resumes a process by sending on its
	// resume channel and then blocks on yield until the process either
	// finishes or parks itself again.
	yield chan struct{}

	procs int // live processes (for leak diagnostics)
}

// NewKernel returns an empty simulation at time zero.
func NewKernel() *Kernel {
	return &Kernel{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a modelling bug.
func (k *Kernel) At(t float64, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
	}
	k.seq++
	heap.Push(&k.events, &event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (k *Kernel) After(d float64, fn func()) { k.At(k.now+d, fn) }

// Run executes events until the queue drains. It returns the final
// virtual time.
func (k *Kernel) Run() float64 { return k.RunUntil(-1) }

// RunUntil executes events with timestamps <= limit (limit < 0 means no
// limit). The clock is left at the last executed event (or at limit when a
// positive limit is given and the queue still has later events).
func (k *Kernel) RunUntil(limit float64) float64 {
	for len(k.events) > 0 {
		next := k.events[0]
		if limit >= 0 && next.at > limit {
			k.now = limit
			return k.now
		}
		heap.Pop(&k.events)
		k.now = next.at
		next.fn()
	}
	if limit >= 0 && k.now < limit {
		k.now = limit
	}
	return k.now
}
