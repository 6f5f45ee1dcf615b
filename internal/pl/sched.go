package pl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/idl"
)

// The work-stealing farm scheduler. The seed design held one frontend
// worker hostage per ticket and picked a manager once, greedily, by
// idle-channel depth — under mixed load that starves interactive analysis
// behind queued bulk reprocessing and leaves whole managers idle while
// another's backlog grows. This scheduler keeps a deque of ready
// invocations per manager instead: an owner drains its own deque highest
// tier first, and a manager with spare interpreters steals from the back
// of the most loaded peer's bulk work, so the farm stays busy wherever
// capacity exists (location constraints permitting).
//
// Two more mechanisms ride on the same dispatch loop:
//
//   - Priority preemption: interactive invocations are queued ahead of
//     bulk ones and jump the line at dispatch time (admission reserves
//     slots for them separately, in the frontend).
//   - Speculative re-dispatch (hedging): when an invocation's primary
//     attempt exceeds a deadline derived from its own cost estimate, a
//     second attempt is enqueued for a different manager. First non-error
//     result wins; the loser's context is canceled, which force-restarts
//     a wedged interpreter through the manager's recovery path.

// ErrShutdown is returned for work refused or abandoned because the farm
// is shutting down. Test with errors.Is.
var ErrShutdown = errors.New("pl: frontend is shut down")

// Tier classifies a request's scheduling class. The zero value is
// interactive, so existing callers (the web UI execute form, tests) keep
// the paper's "user is waiting" semantics without changes.
type Tier int

// Scheduling tiers.
const (
	TierInteractive Tier = iota // a user is waiting on the result
	TierBulk                    // background/batch reprocessing
	numTiers
)

func (t Tier) String() string {
	if t == TierBulk {
		return "bulk"
	}
	return "interactive"
}

// HedgeConfig controls speculative re-dispatch.
type HedgeConfig struct {
	Enabled bool
	// Multiplier scales the invocation's estimated duration into the
	// hedging deadline.
	Multiplier float64
	// Min clamps the deadline from below so sub-millisecond estimates do
	// not hedge instantly; Max clamps from above (0 = no upper clamp).
	Min time.Duration
	Max time.Duration
}

// DefaultHedgeConfig hedges at 4× the estimate, no earlier than 250ms.
func DefaultHedgeConfig() HedgeConfig {
	return HedgeConfig{Enabled: true, Multiplier: 4, Min: 250 * time.Millisecond}
}

// delay computes the hedging deadline for an estimate (seconds).
// Returns 0 when hedging should not be armed.
func (h HedgeConfig) delay(estimateSecs float64) time.Duration {
	if !h.Enabled {
		return 0
	}
	d := time.Duration(h.Multiplier * estimateSecs * float64(time.Second))
	if d < h.Min {
		d = h.Min
	}
	if h.Max > 0 && d > h.Max {
		d = h.Max
	}
	return d
}

// TaskSpec describes one ready invocation handed to the scheduler.
type TaskSpec struct {
	Routine  string
	Args     idl.Args
	Tier     Tier
	Priority int    // higher runs earlier within a tier
	Location string // restrict to managers registered at this location ("" = any)
	// EstimateSecs seeds the hedging deadline (0 = hedge at HedgeConfig.Min).
	EstimateSecs float64
}

// task is one logical invocation; it may have several attempts in flight
// (primary + hedge) but completes exactly once.
type task struct {
	spec TaskSpec
	ctx  context.Context
	seq  int64

	// onDone fires exactly once with the winning result or terminal error.
	onDone func(out idl.Args, err error)

	mu            sync.Mutex
	completed     bool
	running       int // attempts currently executing
	primaryMgr    string
	hedgeTimer    *time.Timer
	hedgeLaunched bool // hedge decision made (timer fired or disarmed forever)
	hedgeQueued   bool // hedge invocation sits in a deque, not yet running
	lastErr       error
	done          chan struct{}
}

func (t *task) isCompleted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// complete resolves the task exactly once; returns false if already done.
func (t *task) complete(out idl.Args, err error) bool {
	t.mu.Lock()
	if t.completed {
		t.mu.Unlock()
		return false
	}
	t.completed = true
	timer := t.hedgeTimer
	t.mu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	close(t.done)
	t.onDone(out, err)
	return true
}

// invocation is one queued attempt of a task.
type invocation struct {
	t     *task
	hedge bool
}

// mgrState is the scheduler's view of one manager: its deques and the
// number of attempts currently occupying its interpreters.
type mgrState struct {
	id       string
	location string
	m        *Manager
	live     bool
	q        [numTiers][]*invocation // each sorted by (priority desc, seq asc)
	inflight int
}

func (st *mgrState) queued() int {
	n := 0
	for tier := range st.q {
		n += len(st.q[tier])
	}
	return n
}

// SchedStats snapshots the farm scheduler's counters.
type SchedStats struct {
	Dispatched     int64 // tasks accepted
	Completed      int64 // tasks resolved (any outcome)
	LocalRuns      int64 // attempts started from the owning manager's deque
	Steals         int64 // attempts started from a peer's deque
	Preemptions    int64 // an interactive attempt jumped queued bulk work
	HedgesLaunched int64
	HedgesWon      int64 // hedge attempt delivered the winning result
	HedgesLost     int64 // primary won after a hedge had launched

	QueuedInteractive int
	QueuedBulk        int
	InFlight          int
}

// Scheduler runs the processing farm. All state transitions happen under
// one mutex in pump(); attempts execute on their own goroutines and feed
// completions back through finishAttempt.
type Scheduler struct {
	dir *Directory

	mu      sync.Mutex
	mgrs    map[string]*mgrState
	hedge   HedgeConfig
	preempt bool
	seq     int64
	closed  bool

	dispatched, completed                 int64
	localRuns, steals, preemptions        int64
	hedgesLaunched, hedgesWon, hedgesLost int64
}

// NewScheduler builds a scheduler over the directory's managers.
func NewScheduler(dir *Directory, hedge HedgeConfig) *Scheduler {
	return &Scheduler{
		dir:     dir,
		mgrs:    make(map[string]*mgrState),
		hedge:   hedge,
		preempt: true,
	}
}

// SetHedge replaces the hedging policy (takes effect for new attempts).
func (s *Scheduler) SetHedge(cfg HedgeConfig) {
	s.mu.Lock()
	s.hedge = cfg
	s.mu.Unlock()
}

// SetPreemption toggles tiered dispatch. Off, interactive and bulk work
// share one FIFO ordered only by priority — the seed behaviour, kept as
// the bench baseline.
func (s *Scheduler) SetPreemption(on bool) {
	s.mu.Lock()
	s.preempt = on
	s.mu.Unlock()
}

// Go enqueues one invocation. It returns an error only for immediate
// refusal (shutdown, no eligible manager); otherwise onDone fires exactly
// once, from a scheduler goroutine, with the winning result or the
// terminal error. Cancelling ctx resolves the task with ctx.Err() and
// cancels any in-flight attempts.
func (s *Scheduler) Go(ctx context.Context, spec TaskSpec, onDone func(idl.Args, error)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrShutdown
	}
	s.refreshLocked()
	target := s.placeLocked(spec.Location, "")
	if target == nil {
		s.mu.Unlock()
		return fmt.Errorf("pl: no processing capacity at %q", spec.Location)
	}
	s.seq++
	t := &task{
		spec: spec, ctx: ctx, seq: s.seq, onDone: onDone,
		done: make(chan struct{}),
	}
	s.enqueueLocked(target, &invocation{t: t})
	s.dispatched++
	s.pumpLocked()
	s.mu.Unlock()

	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-t.done:
			case <-ctx.Done():
				if t.complete(nil, ctx.Err()) {
					s.mu.Lock()
					s.completed++
					s.mu.Unlock()
				}
			}
		}()
	}
	return nil
}

// Close refuses new work and resolves every queued task with ErrShutdown.
// Attempts already executing are left to finish (the frontend cancels
// their contexts separately if it wants them gone).
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	var orphans []*invocation
	for _, st := range s.mgrs {
		for tier := range st.q {
			orphans = append(orphans, st.q[tier]...)
			st.q[tier] = nil
		}
	}
	s.mu.Unlock()
	for _, inv := range orphans {
		if inv.hedge {
			// Dropping a queued hedge must not kill a task whose primary
			// attempt is still running — but if the primary already failed
			// and was waiting on this hedge, resolve with that error now.
			inv.t.mu.Lock()
			inv.t.hedgeQueued = false
			failNow := inv.t.running == 0 && inv.t.lastErr != nil
			err := inv.t.lastErr
			inv.t.mu.Unlock()
			if failNow && inv.t.complete(nil, err) {
				s.mu.Lock()
				s.completed++
				s.mu.Unlock()
			}
			continue
		}
		if inv.t.complete(nil, ErrShutdown) {
			s.mu.Lock()
			s.completed++
			s.mu.Unlock()
		}
	}
}

// Stats snapshots the counters and queue depths.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedStats{
		Dispatched: s.dispatched, Completed: s.completed,
		LocalRuns: s.localRuns, Steals: s.steals, Preemptions: s.preemptions,
		HedgesLaunched: s.hedgesLaunched, HedgesWon: s.hedgesWon, HedgesLost: s.hedgesLost,
	}
	for _, m := range s.mgrs {
		st.QueuedInteractive += len(m.q[TierInteractive])
		st.QueuedBulk += len(m.q[TierBulk])
		st.InFlight += m.inflight
	}
	return st
}

// refreshLocked syncs mgrs with the directory's live manager set.
func (s *Scheduler) refreshLocked() {
	infos := s.dir.Managers("")
	liveNow := make(map[string]bool, len(infos))
	for _, info := range infos {
		m := info.Manager()
		if m == nil {
			continue
		}
		liveNow[info.ID] = true
		st, ok := s.mgrs[info.ID]
		if !ok {
			st = &mgrState{id: info.ID}
			s.mgrs[info.ID] = st
		}
		st.m = m
		st.location = info.Location
		st.live = true
	}
	for id, st := range s.mgrs {
		if !liveNow[id] {
			st.live = false
			// A vanished manager with an empty deque is forgotten; a loaded
			// one stays so peers can steal its queue dry.
			if st.queued() == 0 && st.inflight == 0 {
				delete(s.mgrs, id)
			}
		}
	}
}

// orderedLocked returns manager states sorted by id for deterministic
// dispatch order.
func (s *Scheduler) orderedLocked() []*mgrState {
	out := make([]*mgrState, 0, len(s.mgrs))
	for _, st := range s.mgrs {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// eligible reports whether an invocation may run on a manager.
func eligible(inv *invocation, st *mgrState) bool {
	loc := inv.t.spec.Location
	return loc == "" || loc == st.location
}

// placeLocked picks the least-loaded live manager eligible for a location;
// avoid (a manager id) is skipped unless it is the only candidate — used
// to push hedge attempts onto a different manager than the primary.
func (s *Scheduler) placeLocked(location, avoid string) *mgrState {
	var best, bestAvoided *mgrState
	bestLoad, bestAvoidedLoad := 0.0, 0.0
	for _, st := range s.orderedLocked() {
		if !st.live || (location != "" && st.location != location) {
			continue
		}
		cap := st.m.Servers()
		if cap <= 0 {
			continue
		}
		load := float64(st.inflight+st.queued()) / float64(cap)
		if st.id == avoid {
			if bestAvoided == nil || load < bestAvoidedLoad {
				bestAvoided, bestAvoidedLoad = st, load
			}
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = st, load
		}
	}
	if best == nil {
		return bestAvoided
	}
	return best
}

// enqueueLocked inserts an invocation into a manager's deque, keeping
// (priority desc, seq asc) order within the tier. Hedge attempts always
// ride the interactive tier: they exist to bound tail latency.
func (s *Scheduler) enqueueLocked(st *mgrState, inv *invocation) {
	tier := inv.t.spec.Tier
	if inv.hedge {
		tier = TierInteractive
	}
	if tier < 0 || tier >= numTiers {
		tier = TierBulk
	}
	q := st.q[tier]
	i := sort.Search(len(q), func(i int) bool {
		if q[i].t.spec.Priority != inv.t.spec.Priority {
			return q[i].t.spec.Priority < inv.t.spec.Priority
		}
		return q[i].t.seq > inv.t.seq
	})
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = inv
	st.q[tier] = q
}

// popOwnLocked removes the next invocation from a manager's own deques.
// With preemption on, the interactive tier drains first (counting a
// preemption when bulk work that arrived earlier is bypassed); off, both
// tiers merge into one priority/FIFO order — the pre-farm behaviour.
func (s *Scheduler) popOwnLocked(st *mgrState) *invocation {
	if s.preempt {
		for tier := TierInteractive; tier < numTiers; tier++ {
			if len(st.q[tier]) == 0 {
				continue
			}
			inv := st.q[tier][0]
			st.q[tier] = st.q[tier][1:]
			if tier == TierInteractive && len(st.q[TierBulk]) > 0 &&
				st.q[TierBulk][0].t.seq < inv.t.seq {
				s.preemptions++
			}
			return inv
		}
		return nil
	}
	// Merged order: better priority wins, then submission order.
	bestTier := -1
	for tier := 0; tier < int(numTiers); tier++ {
		if len(st.q[tier]) == 0 {
			continue
		}
		if bestTier < 0 {
			bestTier = tier
			continue
		}
		a, b := st.q[tier][0], st.q[bestTier][0]
		if a.t.spec.Priority > b.t.spec.Priority ||
			(a.t.spec.Priority == b.t.spec.Priority && a.t.seq < b.t.seq) {
			bestTier = tier
		}
	}
	if bestTier < 0 {
		return nil
	}
	inv := st.q[bestTier][0]
	st.q[bestTier] = st.q[bestTier][1:]
	return inv
}

// stealLocked takes an invocation from the most loaded peer for an idle
// manager. Thieves take from the back of the victim's lowest tier first —
// the work least likely to be touched soon by its owner.
func (s *Scheduler) stealLocked(thief *mgrState) *invocation {
	var victim *mgrState
	victimLoad := 0
	for _, st := range s.orderedLocked() {
		if st == thief {
			continue
		}
		// Only count work the thief could legally run.
		n := 0
		for tier := range st.q {
			for _, inv := range st.q[tier] {
				if eligible(inv, thief) {
					n++
				}
			}
		}
		if n > victimLoad {
			victim, victimLoad = st, n
		}
	}
	if victim == nil {
		return nil
	}
	for tier := int(numTiers) - 1; tier >= 0; tier-- {
		q := victim.q[tier]
		for i := len(q) - 1; i >= 0; i-- {
			if !eligible(q[i], thief) {
				continue
			}
			inv := q[i]
			victim.q[tier] = append(q[:i:i], q[i+1:]...)
			return inv
		}
	}
	return nil
}

// pumpLocked launches attempts until every live manager is saturated or
// out of reachable work. Interpreter capacity is read live from the
// manager so AddServer/RemoveServer take effect between attempts.
func (s *Scheduler) pumpLocked() {
	for _, st := range s.orderedLocked() {
		if !st.live || st.m == nil {
			continue
		}
		for st.inflight < st.m.Servers() {
			inv := s.popOwnLocked(st)
			stolen := false
			if inv == nil {
				inv = s.stealLocked(st)
				stolen = true
			}
			if inv == nil {
				break
			}
			if inv.t.isCompleted() {
				// Canceled or already won while queued; drop silently.
				continue
			}
			st.inflight++
			if stolen {
				s.steals++
			} else {
				s.localRuns++
			}
			go s.runAttempt(st, st.m, inv)
		}
	}
}

// runAttempt executes one attempt of a task on a manager. m is captured
// under s.mu by the caller (st.m may be rebound by a directory refresh).
func (s *Scheduler) runAttempt(st *mgrState, m *Manager, inv *invocation) {
	t := inv.t
	base := t.ctx
	if base == nil {
		base = context.Background()
	}
	actx, cancel := context.WithCancel(base)
	defer cancel()

	s.mu.Lock()
	cfg := s.hedge
	s.mu.Unlock()

	t.mu.Lock()
	if t.completed {
		t.mu.Unlock()
		s.attemptOver(st)
		return
	}
	t.running++
	if inv.hedge {
		t.hedgeQueued = false
	} else {
		t.primaryMgr = st.id
		// Arm the hedging deadline when the primary attempt starts.
		if d := cfg.delay(t.spec.EstimateSecs); d > 0 && t.hedgeTimer == nil {
			t.hedgeTimer = time.AfterFunc(d, func() { s.launchHedge(t) })
		}
	}
	t.mu.Unlock()

	// The winner cancels the loser through t.done: a canceled invocation
	// unblocks Manager.Invoke, which force-restarts a wedged interpreter.
	stop := make(chan struct{})
	go func() {
		select {
		case <-t.done:
			cancel()
		case <-stop:
		}
	}()
	out, err := m.Invoke(actx, t.spec.Routine, t.spec.Args)
	close(stop)
	s.finishAttempt(st, inv, out, err)
}

// finishAttempt resolves one attempt's outcome against the task.
func (s *Scheduler) finishAttempt(st *mgrState, inv *invocation, out idl.Args, err error) {
	t := inv.t
	t.mu.Lock()
	t.running--
	if t.completed {
		t.mu.Unlock()
		s.attemptOver(st)
		return
	}
	if err == nil {
		hedged := t.hedgeLaunched
		t.mu.Unlock()
		if t.complete(out, nil) {
			s.mu.Lock()
			s.completed++
			if inv.hedge {
				s.hedgesWon++
			} else if hedged {
				s.hedgesLost++
			}
			s.mu.Unlock()
		}
		s.attemptOver(st)
		return
	}
	t.lastErr = err
	// Fail only when no sibling attempt can still win: none running, none
	// queued, and the hedge timer (if any) disarmed before firing.
	canWin := t.running > 0 || t.hedgeQueued
	if !canWin && t.hedgeTimer != nil && !t.hedgeLaunched {
		if t.hedgeTimer.Stop() {
			t.hedgeLaunched = true // disarmed for good
		} else {
			canWin = true // firing concurrently; the hedge will resolve us
		}
	}
	t.mu.Unlock()
	if !canWin && t.complete(nil, err) {
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
	}
	s.attemptOver(st)
}

// attemptOver returns an interpreter slot and re-pumps.
func (s *Scheduler) attemptOver(st *mgrState) {
	s.mu.Lock()
	st.inflight--
	if !s.closed {
		s.refreshLocked()
		s.pumpLocked()
	}
	s.mu.Unlock()
}

// launchHedge enqueues the speculative second attempt, preferring a
// manager other than the one running the primary.
func (s *Scheduler) launchHedge(t *task) {
	t.mu.Lock()
	if t.completed || t.hedgeLaunched {
		t.mu.Unlock()
		return
	}
	t.hedgeLaunched = true
	primary := t.primaryMgr
	t.mu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.refreshLocked()
	target := s.placeLocked(t.spec.Location, primary)
	if target == nil {
		s.mu.Unlock()
		return
	}
	t.mu.Lock()
	t.hedgeQueued = true
	t.mu.Unlock()
	s.hedgesLaunched++
	s.enqueueLocked(target, &invocation{t: t, hedge: true})
	s.pumpLocked()
	s.mu.Unlock()
}
