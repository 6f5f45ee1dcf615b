package overload

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Priority classes admission: when the limiter is saturated, waiters are
// granted strictly by priority (FIFO within one class), and the lower
// classes are the first shed by the CoDel controller and the smaller
// queue caps.
type Priority int

const (
	// Interactive is authenticated work and mutations: a user is waiting.
	Interactive Priority = iota
	// Browse is anonymous read traffic — the stampede class. It may wait
	// briefly, but it is shed first; the stale cache can often answer it.
	Browse
	// Bulk is background/batch work with no user attached.
	Bulk

	numPriorities
)

func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Browse:
		return "browse"
	case Bulk:
		return "bulk"
	}
	return "unknown"
}

// Config tunes a Limiter. The zero value is usable: every field has a
// default chosen for the cluster gateway's request scale (tens of
// milliseconds of service time, thousands of arrivals per second).
type Config struct {
	// Tier names the layer this limiter guards; it is stamped into every
	// shed Error so operators can see which tier refused.
	Tier string
	// Initial, Min, Max bound the concurrency limit (defaults 16, 2, 256).
	Initial, Min, Max int
	// Window is how many completion samples feed one AIMD adjustment
	// (default 32).
	Window int
	// tolerance is how far the window's p99 may drift above the baseline
	// p50 before the limit backs off multiplicatively (default 8×). The
	// baseline tracks the uncongested p50: it only creeps upward slowly,
	// so a saturated tier cannot normalize its own congestion.
	tolerance float64
	// QueueInterval is the CoDel control interval: a standing queue above
	// target for this long starts the shed cycle, whose spacing then
	// shrinks with sqrt(drop count) (default 200ms).
	QueueInterval time.Duration
	// MaxWait hard-bounds how long any waiter may sit in the admission
	// queue before it is shed (default 1s).
	MaxWait time.Duration
	// MaxQueue caps Interactive waiters; Browse waits in half the space
	// and Bulk in a quarter (default 4×Max).
	MaxQueue int
}

const (
	// backoff is the multiplicative decrease factor.
	backoff = 0.85
	// growth is the additive increase per healthy window that touched the
	// limit.
	growth = 1
	// queueTarget is the CoDel target sojourn time: queue delay below it
	// is considered healthy.
	queueTarget = 20 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Initial <= 0 {
		c.Initial = 16
	}
	if c.Min <= 0 {
		c.Min = 2
	}
	if c.Max <= 0 {
		c.Max = 256
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.Min > c.Max {
		c.Min = c.Max
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.tolerance <= 0 {
		c.tolerance = 8
	}
	if c.QueueInterval <= 0 {
		c.QueueInterval = 200 * time.Millisecond
	}
	if c.MaxWait <= 0 {
		c.MaxWait = time.Second
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.Max
	}
	return c
}

// waiter is one queued Acquire. All fields after the channel are
// guarded by the limiter mutex; done is closed exactly once, after ok
// and retryAfter are final, so the waiting goroutine reads them without
// the lock.
type waiter struct {
	pri  Priority
	at   time.Time
	done chan struct{}

	resolved   bool // granted, shed, or abandoned by its own timer
	ok         bool // true = granted
	retryAfter time.Duration
}

// Limiter is an adaptive concurrency limiter: Acquire blocks (briefly)
// for a permit or returns a typed *Error shed; Release feeds the
// completion latency back into the AIMD control loop.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	limit    int
	inflight int
	queues   [numPriorities][]*waiter
	queued   int

	// AIMD window state.
	samples  []time.Duration
	sawLimit bool    // the window touched the limit at least once
	basep50  float64 // nanoseconds; decaying-minimum baseline

	// CoDel controller state (evaluated at dequeue time).
	aboveSince time.Time
	dropping   bool
	dropCount  int
	dropNext   time.Time

	// Pressure inputs: exponentially-weighted shed fraction and queue
	// delay, decayed by wall time so pressure falls when arrivals stop.
	shedEWMA  float64
	delayEWMA float64 // seconds
	lastEvent time.Time

	lastBackoff time.Time

	admitted  int64
	sheds     int64
	shedByPri [numPriorities]int64
	backoffs  int64
}

// NewLimiter builds a limiter from cfg (zero fields take defaults).
func NewLimiter(cfg Config) *Limiter {
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, limit: cfg.Initial}
}

// Permit is one admitted request; Release it exactly once.
type Permit struct {
	l     *Limiter
	start time.Time
}

// Release completes the permit, feeding the observed service latency
// (since admission) into the control loop.
func (p *Permit) Release() { p.l.release(time.Since(p.start)) }

// ReleaseLatency completes the permit with an explicit latency sample —
// for callers (and tests) that measure service time themselves.
func (p *Permit) ReleaseLatency(lat time.Duration) { p.l.release(lat) }

// Acquire admits one request of the given priority, queueing when the
// limit is reached. It returns a typed *Error when the request is shed:
// queue full, CoDel standing-queue drop, or the MaxWait bound.
func (l *Limiter) Acquire(pri Priority) (*Permit, error) {
	now := time.Now()
	l.mu.Lock()
	l.decayLocked(now)
	if l.inflight < l.limit && l.queued == 0 {
		l.admitLocked()
		l.mu.Unlock()
		return &Permit{l: l, start: now}, nil
	}
	// Saturated: queue or shed. A dropping CoDel controller sheds
	// lower-priority arrivals at the door — the queue is already
	// standing, and they would only be dropped at dequeue anyway.
	if len(l.queues[pri]) >= l.queueCap(pri) || (l.dropping && pri != Interactive) {
		err := l.shedLocked(pri, now)
		l.mu.Unlock()
		return nil, err
	}
	w := &waiter{pri: pri, at: now, done: make(chan struct{})}
	l.queues[pri] = append(l.queues[pri], w)
	l.queued++
	l.mu.Unlock()

	timer := time.NewTimer(l.cfg.MaxWait)
	defer timer.Stop()
	select {
	case <-w.done:
		if w.ok {
			return &Permit{l: l, start: time.Now()}, nil
		}
		return nil, &Error{RetryAfter: w.retryAfter, Tier: l.cfg.Tier}
	case <-timer.C:
		l.mu.Lock()
		if w.resolved {
			// A grant (or shed) raced the timer; honor it.
			l.mu.Unlock()
			<-w.done
			if w.ok {
				return &Permit{l: l, start: time.Now()}, nil
			}
			return nil, &Error{RetryAfter: w.retryAfter, Tier: l.cfg.Tier}
		}
		w.resolved = true
		l.queued--
		err := l.shedLocked(pri, time.Now())
		l.mu.Unlock()
		return nil, err
	}
}

// queueCap scopes the waiter queue per class: Interactive gets the full
// depth, Browse half, Bulk a quarter — the shed order expressed as
// queue space.
func (l *Limiter) queueCap(pri Priority) int {
	switch pri {
	case Browse:
		return l.cfg.MaxQueue / 2
	case Bulk:
		return l.cfg.MaxQueue / 4
	}
	return l.cfg.MaxQueue
}

// admitLocked books one admission at the current instant.
func (l *Limiter) admitLocked() {
	l.inflight++
	if l.inflight >= l.limit {
		l.sawLimit = true
	}
	l.admitted++
	l.shedEWMA += 0.05 * (0 - l.shedEWMA)
}

// shedLocked accounts one shed and builds its typed error.
func (l *Limiter) shedLocked(pri Priority, now time.Time) *Error {
	l.sheds++
	l.shedByPri[pri]++
	l.shedEWMA += 0.05 * (1 - l.shedEWMA)
	l.lastEvent = now
	return &Error{RetryAfter: l.retryAfterLocked(), Tier: l.cfg.Tier}
}

// retryAfterLocked estimates when a retry could succeed: the recent
// queue delay plus one target interval, floored at one control interval.
// The caller is expected to add jitter; the hint is an estimate, not a
// reservation.
func (l *Limiter) retryAfterLocked() time.Duration {
	ra := time.Duration(l.delayEWMA*float64(time.Second)) + queueTarget
	if ra < l.cfg.QueueInterval {
		ra = l.cfg.QueueInterval
	}
	return ra
}

func (l *Limiter) release(lat time.Duration) {
	now := time.Now()
	l.mu.Lock()
	l.decayLocked(now)
	l.inflight--
	l.samples = append(l.samples, lat)
	if len(l.samples) >= l.cfg.Window {
		l.adjustLocked()
	}
	l.grantLocked(now)
	l.mu.Unlock()
}

// adjustLocked is the AIMD step, run once per full sample window: back
// off multiplicatively when the window's p99 has drifted beyond
// Tolerance × the baseline p50; otherwise grow additively if the window
// ever touched the limit.
func (l *Limiter) adjustLocked() {
	s := l.samples
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50 := float64(s[len(s)/2])
	p99 := float64(s[len(s)*99/100])
	if l.basep50 == 0 {
		l.basep50 = p50
	} else {
		// The baseline may only creep upward 2% per window: a congested
		// tier must not re-baseline its own queueing delay as normal. A
		// healthy window pulls it straight down.
		l.basep50 *= 1.02
		if p50 < l.basep50 {
			l.basep50 = p50
		}
	}
	if l.basep50 > 0 && p99 > l.cfg.tolerance*l.basep50 {
		l.backoffLocked()
	} else if l.sawLimit && l.limit < l.cfg.Max {
		l.limit += growth
		if l.limit > l.cfg.Max {
			l.limit = l.cfg.Max
		}
	}
	l.samples = l.samples[:0]
	l.sawLimit = false
}

// backoffLocked applies one multiplicative decrease, floored at Min. Only
// a decrease that moves the limit counts as a backoff: a limit already at
// its floor (always, for a fixed cap with Min = Max) does not back off.
func (l *Limiter) backoffLocked() {
	next := max(int(float64(l.limit)*backoff), l.cfg.Min)
	if next < l.limit {
		l.limit = next
		l.backoffs++
	}
}

// Backpressure applies one multiplicative decrease because a downstream
// tier answered with its own overload shed — the strongest possible
// signal that the current limit overruns real capacity. Rate-limited to
// one decrease per control interval so a burst of identical hints does
// not collapse the limit to the floor.
func (l *Limiter) Backpressure() {
	now := time.Now()
	l.mu.Lock()
	if now.Sub(l.lastBackoff) >= l.cfg.QueueInterval {
		l.backoffLocked()
		l.lastBackoff = now
	}
	l.mu.Unlock()
}

// grantLocked hands freed capacity to waiters: strictly by priority,
// FIFO within a class, with the CoDel controller shedding from the head
// when the queue has been standing above target for a full interval.
func (l *Limiter) grantLocked(now time.Time) {
	for l.inflight < l.limit {
		w := l.popLocked()
		if w == nil {
			return
		}
		sojourn := now.Sub(w.at)
		l.noteDelayLocked(sojourn)
		if l.codelDropLocked(now, sojourn) && l.queued > 0 {
			// Shed this waiter only when someone fresher is behind it:
			// dropping the last waiter would free capacity for nobody.
			w.resolved, w.ok = true, false
			l.sheds++
			l.shedByPri[w.pri]++
			l.shedEWMA += 0.05 * (1 - l.shedEWMA)
			w.retryAfter = l.retryAfterLocked()
			close(w.done)
			continue
		}
		l.admitLocked()
		w.resolved, w.ok = true, true
		close(w.done)
	}
}

// popLocked removes and returns the next live waiter (highest priority
// first), discarding entries abandoned by their MaxWait timer.
func (l *Limiter) popLocked() *waiter {
	for pri := Interactive; pri < numPriorities; pri++ {
		q := l.queues[pri]
		for len(q) > 0 {
			w := q[0]
			q[0] = nil
			q = q[1:]
			if w.resolved {
				continue // abandoned; already accounted
			}
			l.queues[pri] = q
			l.queued--
			return w
		}
		l.queues[pri] = q
	}
	return nil
}

// codelDropLocked is the CoDel decision, evaluated as waiters dequeue:
// once sojourn times have exceeded the target for a full interval the
// controller enters the dropping state, shedding with spacing that
// shrinks as interval/sqrt(count) until the queue drains below target.
func (l *Limiter) codelDropLocked(now time.Time, sojourn time.Duration) bool {
	if sojourn < queueTarget {
		l.aboveSince = time.Time{}
		l.dropping = false
		l.dropCount = 0
		return false
	}
	if l.aboveSince.IsZero() {
		l.aboveSince = now
		return false
	}
	if now.Sub(l.aboveSince) < l.cfg.QueueInterval {
		return false
	}
	if !l.dropping {
		l.dropping = true
		l.dropCount = 1
		l.dropNext = now.Add(l.controlSpacing())
		return true
	}
	if now.Before(l.dropNext) {
		return false
	}
	l.dropCount++
	l.dropNext = now.Add(l.controlSpacing())
	return true
}

func (l *Limiter) controlSpacing() time.Duration {
	return time.Duration(float64(l.cfg.QueueInterval) / math.Sqrt(float64(l.dropCount)))
}

func (l *Limiter) noteDelayLocked(sojourn time.Duration) {
	l.delayEWMA += 0.2 * (sojourn.Seconds() - l.delayEWMA)
}

// decayLocked halves the pressure inputs per quiet control interval, so
// pressure (and with it the degrade switch) falls after a spike even
// if no further arrivals refresh the EWMAs.
func (l *Limiter) decayLocked(now time.Time) {
	if l.lastEvent.IsZero() {
		l.lastEvent = now
		return
	}
	dt := now.Sub(l.lastEvent)
	if dt <= 0 {
		return
	}
	k := math.Pow(0.5, dt.Seconds()/l.cfg.QueueInterval.Seconds())
	l.shedEWMA *= k
	l.delayEWMA *= k
	l.lastEvent = now
}

// Pressure folds the limiter's congestion signals into [0,1] for the
// degrade switch: the decayed shed fraction, the decayed queue delay
// relative to 4× target, whichever is worse.
func (l *Limiter) Pressure() float64 {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	shed, delay := l.shedEWMA, l.delayEWMA
	if !l.lastEvent.IsZero() {
		if dt := now.Sub(l.lastEvent); dt > 0 {
			k := math.Pow(0.5, dt.Seconds()/l.cfg.QueueInterval.Seconds())
			shed *= k
			delay *= k
		}
	}
	dr := delay / (4 * queueTarget.Seconds())
	if dr > 1 {
		dr = 1
	}
	if shed > dr {
		return shed
	}
	return dr
}

// LimiterStats is a consistent snapshot for /stats.
type LimiterStats struct {
	Limit      int
	Min, Max   int // the bounds Limit moves within; Min == Max is a fixed cap
	Inflight   int
	Queued     int
	QueueDelay time.Duration // decaying average admission-queue sojourn
	Baseline   time.Duration // the AIMD baseline p50
	Pressure   float64
	Admitted   int64
	Sheds      int64
	ShedByPri  [3]int64 // interactive, browse, bulk
	Backoffs   int64    // multiplicative decreases (latency- or hint-driven)
}

// Stats snapshots the limiter.
func (l *Limiter) Stats() LimiterStats {
	p := l.Pressure()
	l.mu.Lock()
	defer l.mu.Unlock()
	return LimiterStats{
		Limit:      l.limit,
		Min:        l.cfg.Min,
		Max:        l.cfg.Max,
		Inflight:   l.inflight,
		Queued:     l.queued,
		QueueDelay: time.Duration(l.delayEWMA * float64(time.Second)),
		Baseline:   time.Duration(l.basep50),
		Pressure:   p,
		Admitted:   l.admitted,
		Sheds:      l.sheds,
		ShedByPri:  l.shedByPri,
		Backoffs:   l.backoffs,
	}
}
