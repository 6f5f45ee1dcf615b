package sim

import "math"

// Thrash models capacity degradation under load: once the number of
// concurrent jobs exceeds Threshold, effective capacity shrinks by
// 1/(1+Factor*(n-Threshold)). This captures the memory-pressure/thrashing
// behaviour the paper observed on its middle-tier nodes (Figure 4): the
// application-logic node degrades well below its nominal capacity as more
// simultaneous web clients pile on.
type Thrash struct {
	Threshold float64 // jobs that fit comfortably (e.g. what RAM holds)
	Factor    float64 // degradation per excess job
}

// Multiplier returns the effective-capacity multiplier for n concurrent jobs.
func (t Thrash) Multiplier(n int) float64 {
	if t.Factor <= 0 || float64(n) <= t.Threshold {
		return 1
	}
	return 1 / (1 + t.Factor*(float64(n)-t.Threshold))
}

type psJob struct {
	proc      *Proc
	remaining float64
	tag       string
}

// CPU is a processor-sharing multiprocessor: n concurrent jobs each progress
// at rate min(1, effectiveCores/n) cores. Demands are in core-seconds.
// Per-tag busy integrals support the paper's sys/usr CPU% breakdown
// (Table 1).
type CPU struct {
	k      *Kernel
	cores  float64
	thrash Thrash

	jobs       []*psJob
	lastUpdate float64
	gen        int64 // invalidates stale completion events

	busy map[string]float64 // tag -> core-seconds consumed
}

// NewCPU creates a CPU with the given core count attached to k.
func NewCPU(k *Kernel, cores float64, thrash Thrash) *CPU {
	return &CPU{k: k, cores: cores, thrash: thrash, busy: make(map[string]float64), lastUpdate: k.Now()}
}

// perJobRate returns the progress rate (cores) each current job receives.
func (c *CPU) perJobRate() float64 {
	n := len(c.jobs)
	if n == 0 {
		return 0
	}
	eff := c.cores * c.thrash.Multiplier(n)
	return math.Min(1, eff/float64(n))
}

// advance accrues progress for all jobs from lastUpdate to now.
func (c *CPU) advance() {
	now := c.k.Now()
	elapsed := now - c.lastUpdate
	c.lastUpdate = now
	if elapsed <= 0 || len(c.jobs) == 0 {
		return
	}
	rate := c.perJobRate()
	for _, j := range c.jobs {
		work := elapsed * rate
		if work > j.remaining {
			work = j.remaining
		}
		j.remaining -= work
		c.busy[j.tag] += work
	}
}

// reschedule plans the completion event for the job that finishes first.
func (c *CPU) reschedule() {
	c.gen++
	if len(c.jobs) == 0 {
		return
	}
	rate := c.perJobRate()
	minRem := math.Inf(1)
	for _, j := range c.jobs {
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	gen := c.gen
	c.k.After(minRem/rate, func() {
		if gen != c.gen {
			return // superseded by a later arrival/departure
		}
		c.complete()
	})
}

// complete finishes every job whose demand is exhausted and wakes its process.
func (c *CPU) complete() {
	c.advance()
	const eps = 1e-9
	kept := c.jobs[:0]
	var done []*psJob
	for _, j := range c.jobs {
		if j.remaining <= eps {
			done = append(done, j)
		} else {
			kept = append(kept, j)
		}
	}
	c.jobs = kept
	c.reschedule()
	for _, j := range done {
		j.proc.wake()
	}
}

// Use consumes demand core-seconds on behalf of p, blocking p in virtual
// time for however long processor sharing (and thrashing) dictates. tag
// labels the work for utilization accounting ("usr", "sys", ...).
func (c *CPU) Use(p *Proc, demand float64, tag string) {
	if demand <= 0 {
		return
	}
	c.advance()
	j := &psJob{proc: p, remaining: demand, tag: tag}
	c.jobs = append(c.jobs, j)
	c.reschedule()
	p.park()
}

// BusySeconds returns the core-seconds consumed under tag so far. An empty
// tag sums all tags.
func (c *CPU) BusySeconds(tag string) float64 {
	c.advance()
	if tag != "" {
		return c.busy[tag]
	}
	var total float64
	for _, v := range c.busy {
		total += v
	}
	return total
}

// Utilization returns the mean fraction of the CPU's cores busy with tag
// since time zero. For a measurement window, snapshot BusySeconds at the
// window start and divide the delta by window length times Cores.
func (c *CPU) Utilization(tag string) float64 {
	elapsed := c.k.Now()
	if elapsed <= 0 {
		return 0
	}
	return c.BusySeconds(tag) / (elapsed * c.cores)
}
