package sim

// Proc is a simulation process: a goroutine that advances virtual time by
// parking itself on the kernel and being resumed by scheduled events.
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k      *Kernel
	resume chan struct{}
}

// Go starts fn as a new process at the current virtual time.
func (k *Kernel) Go(fn func(p *Proc)) {
	p := &Proc{k: k, resume: make(chan struct{})}
	k.procs++
	go func() {
		<-p.resume // wait for the kernel to hand us control
		fn(p)
		p.k.procs--
		p.k.yield <- struct{}{} // give control back; we are done
	}()
	k.After(0, func() { k.transferTo(p) })
}

// transferTo hands control to p and blocks until p parks or finishes.
// Must only be called from the kernel's scheduling loop (inside an event).
func (k *Kernel) transferTo(p *Proc) {
	p.resume <- struct{}{}
	<-k.yield
}

// park gives control back to the kernel and blocks until something resumes
// this process via wake (directly or through a scheduled event).
func (p *Proc) park() {
	p.k.yield <- struct{}{}
	<-p.resume
}

// wake schedules p to resume at the current virtual time. It must be called
// from kernel context (an event callback or another process's goroutine
// while that process holds control).
func (p *Proc) wake() {
	p.k.After(0, func() { p.k.transferTo(p) })
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Sleep advances this process by d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.k.After(d, func() { p.k.transferTo(p) })
	p.park()
}
