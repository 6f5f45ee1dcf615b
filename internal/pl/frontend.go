package pl

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dm"
	"repro/internal/epochcache"
	"repro/internal/idl"
	"repro/internal/overload"
)

// Phase names of the request model (§5.1). Phases must run in order; not
// all are mandatory (estimation is optional, commit can be skipped for
// preview-only work); cancel is possible at any time and triggers cleanup
// of the current phase.
const (
	PhaseEstimation = "estimation"
	PhaseExecution  = "execution"
	PhaseDelivery   = "delivery"
	PhaseCommit     = "commit"
)

// Request is an abstract processing request. Type selects the strategy;
// Params is a dynamic structure whose interpretation is delegated to it —
// the frontend is "an interpreter of abstract requests" (§5.1).
type Request struct {
	ID       string
	Type     string
	Session  *dm.Session
	Params   idl.Args
	Tier     Tier   // scheduling class (zero value = interactive)
	Priority int    // higher runs earlier within its tier
	Location string // restrict execution to managers at this location ("" = any)
	NoCommit bool   // stop after delivery (preview)
	NoMemo   bool   // bypass the result cache for this request
}

// Estimate is the result of the estimation phase: "a simple predictor to
// inform the user about the duration of the subsequent execution phase.
// The result of this phase is an execution plan. This phase returns
// immediately."
type Estimate struct {
	Seconds    float64
	InputBytes int64
	Plan       string
	Feasible   bool
	Reason     string
}

// Delivery carries the execution results to the commit phase and to the
// user ("results are made available"). Deliveries may be shared between
// tickets through the result cache: treat them as immutable.
type Delivery struct {
	Files  []dm.StoredFile
	Result idl.Args
}

// Strategy supplies the per-type behaviour of each phase (§5.1: "analyses
// are implemented as a set of strategies, i.e., one for each phase").
type Strategy interface {
	Type() string
	// Estimate predicts cost and feasibility without executing.
	Estimate(req *Request) (*Estimate, error)
	// Prepare stages data and builds the routine invocation.
	Prepare(req *Request) (routine string, args idl.Args, err error)
	// Deliver interprets the routine output.
	Deliver(req *Request, out idl.Args) (*Delivery, error)
	// Commit writes results back into HEDC through the DM; it returns the
	// committed entity id.
	Commit(req *Request, del *Delivery) (string, error)
}

// Status values of a ticket.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDelivered = "delivered"
	StatusCommitted = "committed"
	StatusFailed    = "failed"
	StatusCanceled  = "canceled"
)

// Pipeline stages a ticket passes through on the frontend's worker pool.
// Farm execution happens between them, asynchronously, on the scheduler.
const (
	stagePrepare = iota // run Prepare, dispatch to the farm (or hit the cache)
	stageFinish         // interpret the farm result: Deliver + Commit
)

// Ticket tracks an accepted request through its phases.
type Ticket struct {
	Request  *Request
	Estimate *Estimate

	mu       sync.Mutex
	status   string
	phase    string
	delivery *Delivery
	entityID string
	err      error
	terminal bool

	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc

	seq   int64
	index int // heap bookkeeping

	// Worker-pipeline state. stage and the exec results are only touched
	// with the ticket off the queue (push/pop under f.mu sequence them).
	stage   int
	execOut idl.Args
	execErr error

	memoKey   string
	memoEpoch string
	memoOK    bool
}

// Status returns the ticket's current status and phase.
func (t *Ticket) Status() (status, phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status, t.phase
}

// Wait blocks until the request finishes (any terminal status) or ctx
// expires; it returns the committed entity id.
func (t *Ticket) Wait(ctx context.Context) (string, error) {
	select {
	case <-t.done:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entityID, t.err
}

// Delivery returns the delivered results (nil before delivery).
func (t *Ticket) Delivery() *Delivery {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delivery
}

// Cancel aborts the request. Queued requests never start; running ones are
// interrupted through their context and clean up the current phase.
func (t *Ticket) Cancel() { t.cancel() }

// ticketHeap orders the frontend's worker queue. Tickets coming back from
// the farm (stageFinish) run before fresh ones — finishing work frees
// admission slots; then, when tiering is on, interactive before bulk;
// then (priority desc, submission order).
type ticketHeap struct {
	ts     []*Ticket
	tiered bool
}

func (h *ticketHeap) Len() int { return len(h.ts) }
func (h *ticketHeap) Less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.stage != b.stage {
		return a.stage > b.stage
	}
	if h.tiered && a.Request.Tier != b.Request.Tier {
		return a.Request.Tier < b.Request.Tier
	}
	if a.Request.Priority != b.Request.Priority {
		return a.Request.Priority > b.Request.Priority
	}
	return a.seq < b.seq
}
func (h *ticketHeap) Swap(i, j int) {
	h.ts[i], h.ts[j] = h.ts[j], h.ts[i]
	h.ts[i].index = i
	h.ts[j].index = j
}
func (h *ticketHeap) Push(x interface{}) {
	t := x.(*Ticket)
	t.index = len(h.ts)
	h.ts = append(h.ts, t)
}
func (h *ticketHeap) Pop() interface{} {
	old := h.ts
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	h.ts = old[:n-1]
	return t
}

// FrontendStats counts request outcomes.
type FrontendStats struct {
	Submitted int64
	Committed int64
	Delivered int64
	Failed    int64
	Canceled  int64
	// BulkShed counts bulk submissions refused at the door while the
	// brownout ladder's shed-bulk rung was active (SetShedBulk).
	BulkShed int64
	InSystem int
	Queued   int
}

// FarmStats aggregates the whole processing farm for /stats: frontend
// outcomes, scheduler behaviour (steals, preemptions, hedges), the result
// cache, and the per-manager interpreter pools.
type FarmStats struct {
	Frontend FrontendStats
	Sched    SchedStats
	Memo     MemoStats
	Managers []ManagerStats
}

// Frontend is the primary controller: it accepts requests, runs the
// estimation phase inline, and pipelines admitted tickets through its
// worker pool — Prepare and Deliver/Commit on the workers, execution on
// the work-stealing farm scheduler, with memoized deliveries served
// before any staging work. MaxInSystem bounds admitted-but-unfinished
// requests (the §8 tests cap this at 20); a slice of those slots is
// reserved for interactive requests so bulk reprocessing can never block
// an interactive Submit at the admission gate.
type Frontend struct {
	dir         *Directory
	sched       *Scheduler
	strategies  map[string]Strategy
	workers     int
	maxInSystem int

	mu           sync.Mutex
	queue        ticketHeap
	inSystem     int
	bulkInSystem int
	reserve      int // admission slots bulk may not occupy
	seq          int64
	wake         *sync.Cond
	closed       bool

	memo   *epochcache.Cache[string, *Delivery]
	memoOn atomic.Bool

	// shedBulk is the brownout ladder's deepest rung: refuse bulk
	// reprocessing at the door so interactive work keeps the farm.
	shedBulk atomic.Bool

	stats struct {
		submitted, committed, delivered, failed, canceled, bulkShed int64
	}
}

// NewFrontend builds a frontend with the given worker pool size and
// admission limit (0 = 20).
func NewFrontend(dir *Directory, workers, maxInSystem int) *Frontend {
	if workers < 1 {
		workers = 4
	}
	if maxInSystem <= 0 {
		maxInSystem = 20
	}
	f := &Frontend{
		dir: dir, strategies: make(map[string]Strategy),
		workers: workers, maxInSystem: maxInSystem,
		sched: NewScheduler(dir, DefaultHedgeConfig()),
		memo:  epochcache.New[string, *Delivery](memoEntries),
	}
	f.queue.tiered = true
	f.reserve = interactiveReserve(maxInSystem)
	f.memoOn.Store(true)
	f.wake = sync.NewCond(&f.mu)
	for i := 0; i < workers; i++ {
		go f.worker()
	}
	return f
}

// interactiveReserve sizes the admission slots bulk work may not take:
// a quarter of the gate, at least one — unless the gate is a single slot,
// where reserving it would deadlock bulk entirely.
func interactiveReserve(maxInSystem int) int {
	if maxInSystem <= 1 {
		return 0
	}
	if r := maxInSystem / 4; r > 1 {
		return r
	}
	return 1
}

// SetMemoize toggles the result cache (on by default).
func (f *Frontend) SetMemoize(on bool) { f.memoOn.Store(on) }

// SetShedBulk toggles door-level refusal of bulk submissions. The
// cluster's brownout ladder drives this at its deepest rung: a shed bulk
// request fails fast with a typed overload error instead of competing
// with interactive work for admission slots and farm capacity.
func (f *Frontend) SetShedBulk(on bool) { f.shedBulk.Store(on) }

// SetHedge replaces the farm's speculative re-dispatch policy.
func (f *Frontend) SetHedge(cfg HedgeConfig) { f.sched.SetHedge(cfg) }

// SetPreemption toggles priority tiering end to end: the scheduler's
// tiered deques and the frontend's reserved admission slots. Off is the
// pre-farm baseline (single shared FIFO, priority only).
func (f *Frontend) SetPreemption(on bool) {
	f.sched.SetPreemption(on)
	f.mu.Lock()
	f.queue.tiered = on
	if on {
		f.reserve = interactiveReserve(f.maxInSystem)
	} else {
		f.reserve = 0
	}
	heap.Init(&f.queue)
	f.wake.Broadcast()
	f.mu.Unlock()
}

// RegisterStrategy installs a request type. "Incorporating new processing
// environments into HEDC involves defining the strategy that extends the
// existing framework" (§5.1).
func (f *Frontend) RegisterStrategy(s Strategy) {
	f.mu.Lock()
	f.strategies[s.Type()] = s
	f.mu.Unlock()
}

// EstimateOnly runs just the estimation phase.
func (f *Frontend) EstimateOnly(req *Request) (*Estimate, error) {
	f.mu.Lock()
	s, ok := f.strategies[req.Type]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("pl: unknown request type %q", req.Type)
	}
	return s.Estimate(req)
}

// admitLocked reports whether a request of the given tier may enter the
// system now. Interactive requests see the full gate; bulk ones stop
// short of the reserved slice, so an interactive Submit never blocks
// behind bulk at the MaxInSystem gate.
func (f *Frontend) admitLocked(tier Tier) bool {
	if f.inSystem >= f.maxInSystem {
		return false
	}
	if tier == TierBulk && f.bulkInSystem >= f.maxInSystem-f.reserve {
		return false
	}
	return true
}

// release returns an admission slot.
func (f *Frontend) release(tier Tier) {
	f.mu.Lock()
	f.releaseLocked(tier)
	f.mu.Unlock()
}

func (f *Frontend) releaseLocked(tier Tier) {
	f.inSystem--
	if tier == TierBulk {
		f.bulkInSystem--
	}
	f.wake.Broadcast()
}

// Submit admits a request: estimation runs inline, then the ticket queues
// for the worker pipeline. Submission blocks while the request's tier is
// at its admission limit, matching the closed-loop workload of the
// processing tests.
func (f *Frontend) Submit(req *Request) (*Ticket, error) {
	f.mu.Lock()
	s, ok := f.strategies[req.Type]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("pl: unknown request type %q", req.Type)
	}
	if req.Tier == TierBulk && f.shedBulk.Load() {
		f.stats.bulkShed++
		f.mu.Unlock()
		// The hint spans a couple of ladder dwell periods: retrying any
		// sooner cannot observe a rung change.
		return nil, &overload.Error{Tier: "pl", RetryAfter: time.Second}
	}
	for !f.admitLocked(req.Tier) && !f.closed {
		f.wake.Wait()
	}
	if f.closed {
		f.mu.Unlock()
		return nil, ErrShutdown
	}
	f.inSystem++
	if req.Tier == TierBulk {
		f.bulkInSystem++
	}
	f.seq++
	seq := f.seq
	f.stats.submitted++
	f.mu.Unlock()

	est, err := s.Estimate(req)
	if err != nil {
		f.release(req.Tier)
		return nil, err
	}
	if !est.Feasible {
		f.release(req.Tier)
		return nil, fmt.Errorf("pl: request infeasible: %s", est.Reason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t := &Ticket{
		Request: req, Estimate: est,
		status: StatusQueued, phase: PhaseEstimation,
		done: make(chan struct{}), ctx: ctx, cancel: cancel,
		seq: seq, index: -1,
	}
	go f.watchCancel(t)

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.terminate(t, StatusFailed, ErrShutdown)
		return nil, ErrShutdown
	}
	heap.Push(&f.queue, t)
	f.wake.Broadcast()
	f.mu.Unlock()
	return t, nil
}

// watchCancel terminates a ticket whose context is canceled while it sits
// in the worker queue (either stage). Tickets being actively processed
// observe the context through the stage code instead.
func (f *Frontend) watchCancel(t *Ticket) {
	select {
	case <-t.done:
		return
	case <-t.ctx.Done():
	}
	f.mu.Lock()
	inQueue := t.index >= 0 && t.index < f.queue.Len() && f.queue.ts[t.index] == t
	if inQueue {
		heap.Remove(&f.queue, t.index)
		t.index = -1
	}
	f.mu.Unlock()
	if inQueue {
		f.terminate(t, StatusCanceled, context.Canceled)
	}
}

// terminate resolves a ticket exactly once: terminal status, outcome
// counters, admission release, done broadcast. Every completion path —
// worker stages, cancellation watcher, shutdown drain — funnels through
// here, so racing resolvers cannot double-release an admission slot.
func (f *Frontend) terminate(t *Ticket, status string, err error) {
	t.mu.Lock()
	if t.terminal {
		t.mu.Unlock()
		return
	}
	t.terminal = true
	t.status = status
	t.err = err
	t.mu.Unlock()

	f.mu.Lock()
	switch status {
	case StatusCanceled:
		f.stats.canceled++
	case StatusFailed:
		f.stats.failed++
	case StatusCommitted:
		f.stats.committed++
	}
	f.releaseLocked(t.Request.Tier)
	f.mu.Unlock()
	close(t.done)
}

// Close refuses new work, fails every queued ticket with ErrShutdown
// (their Wait unblocks — a queued ticket can no longer hang on a shut
// frontend), drains the farm scheduler, and lets the workers exit.
func (f *Frontend) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	var orphans []*Ticket
	for f.queue.Len() > 0 {
		t := heap.Pop(&f.queue).(*Ticket)
		t.index = -1
		orphans = append(orphans, t)
	}
	f.wake.Broadcast()
	f.mu.Unlock()
	f.sched.Close()
	for _, t := range orphans {
		f.terminate(t, StatusFailed, ErrShutdown)
	}
}

// Stats snapshots the counters.
func (f *Frontend) Stats() FrontendStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FrontendStats{
		Submitted: f.stats.submitted,
		Committed: f.stats.committed,
		Delivered: f.stats.delivered,
		Failed:    f.stats.failed,
		Canceled:  f.stats.canceled,
		BulkShed:  f.stats.bulkShed,
		InSystem:  f.inSystem,
		Queued:    f.queue.Len(),
	}
}

// FarmStats snapshots the whole farm.
func (f *Frontend) FarmStats() FarmStats {
	fs := FarmStats{
		Frontend: f.Stats(),
		Sched:    f.sched.Stats(),
		Memo:     f.memo.Stats(),
	}
	for _, info := range f.dir.Managers("") {
		if m := info.Manager(); m != nil {
			fs.Managers = append(fs.Managers, m.Stats())
		}
	}
	return fs
}

func (f *Frontend) worker() {
	for {
		f.mu.Lock()
		for f.queue.Len() == 0 && !f.closed {
			f.wake.Wait()
		}
		if f.queue.Len() == 0 {
			f.mu.Unlock()
			return
		}
		t := heap.Pop(&f.queue).(*Ticket)
		t.index = -1
		s := f.strategies[t.Request.Type]
		f.mu.Unlock()

		if t.stage == stageFinish {
			f.finishExec(t, s)
		} else {
			f.prepare(t, s)
		}
	}
}

// prepare runs the first worker stage: serve from the result cache if
// possible, otherwise stage data (Strategy.Prepare) and hand the
// invocation to the farm scheduler. The worker is free again the moment
// dispatch returns; execDone requeues the ticket when the farm finishes.
func (f *Frontend) prepare(t *Ticket, s Strategy) {
	if err := t.ctx.Err(); err != nil {
		f.terminate(t, StatusCanceled, err)
		return
	}
	t.mu.Lock()
	t.status = StatusRunning
	t.phase = PhaseExecution
	t.mu.Unlock()

	// Result cache: key and epoch are computed before any staging work, so
	// a hit skips Prepare entirely and a commit racing past this point
	// makes the stored entry a future miss rather than a stale hit.
	if f.memoOn.Load() && !t.Request.NoMemo {
		if ck, ok := s.(CacheKeyer); ok {
			if key, epoch, kOK := ck.CacheKey(t.Request); kOK {
				t.memoKey, t.memoEpoch, t.memoOK = key, epoch, true
				if del, hit := f.memo.Get(key, epoch); hit {
					f.deliver(t, s, del)
					return
				}
			}
		}
	}

	routine, args, err := s.Prepare(t.Request)
	if err != nil {
		f.terminate(t, StatusFailed, err)
		return
	}
	err = f.sched.Go(t.ctx, TaskSpec{
		Routine: routine, Args: args,
		Tier: t.Request.Tier, Priority: t.Request.Priority,
		Location:     t.Request.Location,
		EstimateSecs: t.Estimate.Seconds,
	}, func(out idl.Args, err error) { f.execDone(t, out, err) })
	if err != nil {
		f.terminate(t, StatusFailed, err)
	}
}

// execDone receives the farm's result and requeues the ticket for its
// finishing stage (Deliver/Commit) on the worker pool.
func (f *Frontend) execDone(t *Ticket, out idl.Args, err error) {
	if err != nil && t.ctx.Err() != nil {
		f.terminate(t, StatusCanceled, err)
		return
	}
	t.execOut, t.execErr = out, err
	t.stage = stageFinish
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.terminate(t, StatusFailed, ErrShutdown)
		return
	}
	heap.Push(&f.queue, t)
	f.wake.Broadcast()
	f.mu.Unlock()
}

// finishExec runs the second worker stage: interpret the farm result,
// populate the cache, deliver and commit.
func (f *Frontend) finishExec(t *Ticket, s Strategy) {
	if t.execErr != nil {
		if t.ctx.Err() != nil {
			f.terminate(t, StatusCanceled, t.execErr)
		} else {
			f.terminate(t, StatusFailed, t.execErr)
		}
		return
	}
	t.mu.Lock()
	t.phase = PhaseDelivery
	t.mu.Unlock()
	del, err := s.Deliver(t.Request, t.execOut)
	if err != nil {
		f.terminate(t, StatusFailed, err)
		return
	}
	if t.memoOK && f.memoOn.Load() {
		f.memo.Put(t.memoKey, t.memoEpoch, del, 1)
	}
	f.deliver(t, s, del)
}

// deliver runs the delivery and commit phases over a delivery object
// (freshly computed or served from the cache).
func (f *Frontend) deliver(t *Ticket, s Strategy, del *Delivery) {
	t.mu.Lock()
	t.delivery = del
	t.status = StatusDelivered
	t.phase = PhaseDelivery
	t.mu.Unlock()
	f.mu.Lock()
	f.stats.delivered++
	f.mu.Unlock()

	if t.Request.NoCommit {
		f.terminate(t, StatusDelivered, nil)
		return
	}
	t.mu.Lock()
	t.phase = PhaseCommit
	t.mu.Unlock()
	id, err := s.Commit(t.Request, del)
	if err != nil {
		f.terminate(t, StatusFailed, err)
		return
	}
	t.mu.Lock()
	t.entityID = id
	t.mu.Unlock()
	f.terminate(t, StatusCommitted, nil)
}
