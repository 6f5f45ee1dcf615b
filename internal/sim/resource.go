package sim

// Resource is a counting semaphore with a FIFO wait queue, used to model
// bounded facilities: database connection pools, the "no more than 20
// requests in the system" admission limit of the processing tests (§8.1),
// serialized links, and so on.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waiters  []*Proc

	// stats
	busyIntegral float64
	lastUpdate   float64
}

// NewResource creates a semaphore with the given capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, capacity: capacity, lastUpdate: k.Now()}
}

func (r *Resource) accrue() {
	now := r.k.Now()
	r.busyIntegral += float64(r.inUse) * (now - r.lastUpdate)
	r.lastUpdate = now
}

// Acquire takes one unit, parking p until one is free. Units are granted in
// FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.accrue()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
}

// Release returns one unit, resuming the longest-waiting process if any.
// The unit is handed directly to the next waiter (inUse stays constant)
// so FIFO fairness holds even under contention.
func (r *Resource) Release() {
	r.accrue()
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		next.wake()
		return
	}
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	r.inUse--
}

// Use runs the critical section "hold one unit for d seconds".
func (r *Resource) Use(p *Proc, d float64) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// MeanBusy returns the time-averaged number of busy units since time zero.
func (r *Resource) MeanBusy() float64 {
	r.accrue()
	if r.k.Now() == 0 {
		return 0
	}
	return r.busyIntegral / r.k.Now()
}

// Link models a network connection with fixed latency and bandwidth.
// Transfers are serialized FIFO at full bandwidth, which matches the
// point-to-point 2 MB/s HTTP link of the processing testbed (§8.1).
type Link struct {
	res       *Resource
	latency   float64 // seconds per transfer
	bandwidth float64 // bytes per second
}

// NewLink creates a link attached to k.
func NewLink(k *Kernel, latency, bandwidthBytesPerSec float64) *Link {
	if bandwidthBytesPerSec <= 0 {
		panic("sim: link bandwidth must be positive")
	}
	return &Link{res: NewResource(k, 1), latency: latency, bandwidth: bandwidthBytesPerSec}
}

// Transfer moves n bytes across the link on behalf of p.
func (l *Link) Transfer(p *Proc, n int64) {
	if n < 0 {
		n = 0
	}
	l.res.Use(p, l.latency+float64(n)/l.bandwidth)
}
