package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/dm"
	"repro/internal/epochcache"
	"repro/internal/overload"
	"repro/internal/schema"
)

// ErrOverloaded is the sentinel a shed request matches via errors.Is: the
// middle tier is saturated and queueing longer would only grow the
// backlog (§7.3's ceiling made visible to the caller instead of as an
// unbounded queue). The concrete error is always an *overload.Error
// carrying a retry-after hint; this alias keeps every existing
// errors.Is(err, cluster.ErrOverloaded) call site working.
var ErrOverloaded = overload.ErrOverloaded

// ErrNoReplicas is returned when no healthy replica is available.
var ErrNoReplicas = fmt.Errorf("cluster: no healthy replicas")

const (
	// shedRetryAfter is the retry-after hint stamped on fixed-mode sheds,
	// where no queue-delay signal exists to derive one.
	shedRetryAfter = 250 * time.Millisecond
	// affinitySpill is how many in-flight requests beyond the least
	// loaded replica the affinity choice may carry before the gateway
	// spills to the least loaded one. Affinity keeps each replica's
	// epoch-keyed query cache hot; spilling keeps a hot key from melting
	// one node.
	affinitySpill = 8
	// retryRefillPerSec and retryBurst shape the global retry budget:
	// every failover retry spends one token from a bucket of retryBurst
	// refilling at retryRefillPerSec. A dry bucket stops retries
	// cluster-wide — the brake on retry storms.
	retryRefillPerSec = 16
	retryBurst        = 32
)

// GatewayOptions tunes routing, health checking and admission control.
type GatewayOptions struct {
	// HealthInterval is the active health-check period (default 500ms).
	HealthInterval time.Duration
	// RetryBackoff is the pause before retrying a failed call on another
	// replica (default 10ms, doubling per attempt).
	RetryBackoff time.Duration
	// MaxInflight caps concurrently admitted requests with a FIXED
	// semaphore; 0 disables admission control. Ignored when AdaptiveLimit
	// is set. Kept as the baseline arm of the stampede A/B experiment.
	MaxInflight int
	// queueTimeout bounds how long an admitted-pending request may wait
	// for capacity before being shed (default 5s). Fixed-semaphore mode
	// only; the adaptive limiter uses its own MaxWait.
	queueTimeout time.Duration
	// AdaptiveLimit switches admission control to the latency-gradient
	// limiter in internal/overload: the inflight cap breathes with
	// measured latency (AIMD), queue sojourn is CoDel-bounded, and sheds
	// carry a retry-after hint derived from observed queue delay. Nil
	// keeps the fixed semaphore.
	AdaptiveLimit *overload.Config
	// Brownout tunes the pressure ladder that trades features for
	// capacity while the limiter is saturated (nil = defaults). Only
	// active alongside AdaptiveLimit.
	Brownout *overload.LadderConfig
	// BrownoutTick is how often the ladder samples limiter pressure
	// (default 100ms).
	BrownoutTick time.Duration
	// BreakerThreshold is how many consecutive transport failures open a
	// replica's circuit (default 3). An open circuit takes the replica
	// out of rotation until a half-open probe succeeds.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit holds calls off before
	// admitting a single half-open probe (default 1s).
	BreakerCooldown time.Duration
	// Logger receives health transitions and failovers. Nil discards.
	Logger *log.Logger
}

// Pinger is implemented by replica endpoints that support liveness
// probes (dm.Remote does). Members without it count as always healthy.
type Pinger interface{ Ping() error }

type member struct {
	name string
	api  dm.API
	bk   *circuit.Breaker

	healthy  atomic.Bool
	inflight atomic.Int64
	served   atomic.Int64
	failed   atomic.Int64
}

// MemberStatus is one replica's observable state.
type MemberStatus struct {
	Name     string
	Healthy  bool
	Inflight int64
	Served   int64
	Failed   int64
	// Circuit is the replica's breaker state ("closed", "open",
	// "half-open"); CircuitFails counts consecutive transport failures;
	// CircuitOpens counts lifetime open transitions.
	Circuit      string
	CircuitFails int
	CircuitOpens int64
}

// Gateway fronts N replicas with one dm.API: the presentation tier
// programs against it exactly as against a single DM ("the calling
// methods do not know where the code is actually executed", §5.4).
type Gateway struct {
	opts GatewayOptions

	mu      sync.RWMutex
	members []*member

	pinMu sync.Mutex
	pins  map[string]*member // session token -> replica holding the session

	admit chan struct{}     // fixed admission semaphore (nil = unlimited)
	lim   *overload.Limiter // adaptive admission (nil = fixed/off)
	lad   *overload.Ladder  // brownout ladder (nil unless adaptive)

	hookMu sync.Mutex
	hook   overload.StageActions // brownout side effects (SetBrownoutHook)

	retry *retryBudget
	stale *epochcache.Cache[uint64, staleValue] // anonymous read results, keyed on writeEpoch

	shed           atomic.Int64
	failovers      atomic.Int64
	budgetDenied   atomic.Int64 // retries refused by the dry retry budget
	degradedServes atomic.Int64 // reads answered from the stale cache
	demotions      atomic.Int64 // sessions demoted because their pin died
	writesFailed   atomic.Int64 // mutations failed fast on DB unavailability
	dbOverloads    atomic.Int64 // downstream (dm/db tier) overload refusals observed
	writeEpoch     atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

var _ dm.API = (*Gateway)(nil)

// NewGateway builds a gateway; add replicas with AddReplica.
func NewGateway(opts GatewayOptions) *Gateway {
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 500 * time.Millisecond
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 10 * time.Millisecond
	}
	if opts.queueTimeout <= 0 {
		opts.queueTimeout = 5 * time.Second
	}
	if opts.BreakerThreshold <= 0 {
		opts.BreakerThreshold = 3
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = time.Second
	}
	if opts.BrownoutTick <= 0 {
		opts.BrownoutTick = 100 * time.Millisecond
	}
	g := &Gateway{
		opts:  opts,
		pins:  make(map[string]*member),
		stop:  make(chan struct{}),
		retry: newRetryBudget(retryRefillPerSec, retryBurst),
		stale: epochcache.New[uint64, staleValue](staleEntries),
	}
	if opts.AdaptiveLimit != nil {
		cfg := *opts.AdaptiveLimit
		if cfg.Tier == "" {
			cfg.Tier = "gateway"
		}
		g.lim = overload.NewLimiter(cfg)
		g.lad = overload.NewLadder(opts.Brownout)
		g.wg.Add(1)
		go g.brownoutLoop()
	} else if opts.MaxInflight > 0 {
		g.admit = make(chan struct{}, opts.MaxInflight)
	}
	g.wg.Add(1)
	go g.healthLoop()
	return g
}

// SetBrownoutHook installs the side effects the brownout ladder drives as
// it climbs and descends: typically the processing farm's hedging switch,
// the replicas' stale-read switch, and the farm's bulk-shed switch. The
// hook is applied idempotently on each stage transition.
func (g *Gateway) SetBrownoutHook(a overload.StageActions) {
	g.hookMu.Lock()
	g.hook = a
	g.hookMu.Unlock()
}

// BrownoutStage reports the ladder's current rung (StageNormal when the
// gateway runs without adaptive admission).
func (g *Gateway) BrownoutStage() overload.Stage {
	if g.lad == nil {
		return overload.StageNormal
	}
	return g.lad.Stage()
}

// brownoutLoop samples limiter pressure on a fixed tick and walks the
// ladder one rung at a time, applying the installed hook on transitions.
func (g *Gateway) brownoutLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.opts.BrownoutTick)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case now := <-ticker.C:
			from := g.lad.Stage()
			to := g.lad.Observe(now, g.lim.Pressure())
			if to == from {
				continue
			}
			g.logf("cluster: brownout %v -> %v (pressure %.2f)", from, to, g.lim.Pressure())
			g.hookMu.Lock()
			hook := g.hook
			g.hookMu.Unlock()
			hook.Apply(from, to)
		}
	}
}

// priorityOf maps a request to its admission class: mutations and
// authenticated calls are interactive (someone is waiting, or data is at
// stake); anonymous reads are browse — the class a flare-alert stampede
// arrives in, and the first to shed.
func priorityOf(token string, mutation bool) overload.Priority {
	if mutation || token != "" {
		return overload.Interactive
	}
	return overload.Browse
}

// AddReplica registers a replica endpoint under a unique name.
func (g *Gateway) AddReplica(name string, api dm.API) {
	m := &member{name: name, api: api,
		bk: circuit.New(g.opts.BreakerThreshold, g.opts.BreakerCooldown)}
	m.healthy.Store(true)
	g.mu.Lock()
	g.members = append(g.members, m)
	g.mu.Unlock()
}

// Members reports every replica's state.
func (g *Gateway) Members() []MemberStatus {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]MemberStatus, 0, len(g.members))
	for _, m := range g.members {
		bkState, fails, opens := m.bk.Snapshot()
		out = append(out, MemberStatus{
			Name:         m.name,
			Healthy:      m.healthy.Load(),
			Inflight:     m.inflight.Load(),
			Served:       m.served.Load(),
			Failed:       m.failed.Load(),
			Circuit:      bkState,
			CircuitFails: fails,
			CircuitOpens: opens,
		})
	}
	return out
}

// Failovers counts calls retried on another replica after a transport
// failure.
func (g *Gateway) Failovers() int64 { return g.failovers.Load() }

// Status is the gateway's full resilience snapshot, for /stats pages and
// shutdown logs.
type Status struct {
	Members          []MemberStatus
	Shed             int64   // requests dropped by admission control
	Failovers        int64   // calls retried on another replica
	RetriesDenied    int64   // retries refused by the dry retry budget
	RetryTokens      float64 // retry budget tokens currently available
	RetryBurst       int     // retry budget capacity
	DegradedServes   int64   // reads answered from the stale cache
	SessionDemotions int64   // sessions demoted because their pinned replica died
	WritesFailedFast int64   // mutations failed fast on DB unavailability
	WriteEpoch       uint64  // writes accepted through this gateway
	StaleEntries     int     // anonymous results held for degraded serving
	Overload         OverloadStatus

	Stale epochcache.Stats // the stale cache's whole counter set (StaleEntries is its Entries)
}

// OverloadStatus is the admission-control and brownout snapshot for
// /stats: what the adaptive limiter currently allows, what it is
// shedding, and which rung of the brownout ladder the cluster stands on.
type OverloadStatus struct {
	Adaptive    bool          // true when the latency-gradient limiter is active
	Limit       int           // current concurrency limit (0 = admission control off)
	Inflight    int           // admitted and executing now
	Queued      int           // waiting for a permit
	QueueDelay  time.Duration // recent average wait for a permit
	Baseline    time.Duration // the limiter's floor-p50 latency estimate
	Pressure    float64       // 0..1 signal the brownout ladder observes
	Sheds       int64         // requests refused by the limiter
	ShedByPri   [3]int64      // sheds by class: interactive, browse, bulk
	Backoffs    int64         // multiplicative limit decreases
	DBOverloads int64         // downstream tiers' overload refusals observed
	Stage       string        // brownout rung ("normal", "no-hedge", ...)
	Transitions int64         // lifetime brownout rung changes
}

// Status reports every resilience counter in one consistent-enough view.
func (g *Gateway) Status() Status {
	ov := OverloadStatus{
		DBOverloads: g.dbOverloads.Load(),
		Stage:       g.BrownoutStage().String(),
	}
	if g.lim != nil {
		st := g.lim.Stats()
		ov.Adaptive = true
		ov.Limit = st.Limit
		ov.Inflight = st.Inflight
		ov.Queued = st.Queued
		ov.QueueDelay = st.QueueDelay
		ov.Baseline = st.Baseline
		ov.Pressure = st.Pressure
		ov.Sheds = st.Sheds
		ov.ShedByPri = [3]int64(st.ShedByPri)
		ov.Backoffs = st.Backoffs
		ov.Transitions = g.lad.Transitions()
	} else {
		ov.Limit = cap(g.admit)
		ov.Inflight = len(g.admit)
		ov.Sheds = g.shed.Load()
	}
	stale := g.stale.Stats()
	return Status{
		Members:          g.Members(),
		Shed:             g.shed.Load(),
		Failovers:        g.failovers.Load(),
		RetriesDenied:    g.budgetDenied.Load(),
		RetryTokens:      g.retry.remaining(),
		RetryBurst:       retryBurst,
		DegradedServes:   g.degradedServes.Load(),
		SessionDemotions: g.demotions.Load(),
		WritesFailedFast: g.writesFailed.Load(),
		WriteEpoch:       g.writeEpoch.Load(),
		StaleEntries:     stale.Entries,
		Stale:            stale,
		Overload:         ov,
	}
}

// Close stops the health loop. In-flight calls complete.
func (g *Gateway) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.wg.Wait()
}

func (g *Gateway) logf(format string, args ...any) {
	if g.opts.Logger != nil {
		g.opts.Logger.Printf(format, args...)
	}
}

// healthLoop actively probes every member. A replica that fails its
// probe is taken out of rotation until a probe succeeds again.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		g.mu.RLock()
		members := append([]*member(nil), g.members...)
		g.mu.RUnlock()
		for _, m := range members {
			p, ok := m.api.(Pinger)
			if !ok {
				m.healthy.Store(true)
				continue
			}
			up := p.Ping() == nil
			if was := m.healthy.Swap(up); was != up {
				if up {
					// Fresh evidence the replica answers: close its
					// circuit too, or the breaker would gate re-entry
					// behind another cooldown.
					m.bk.Reset()
					g.logf("cluster: replica %s back in rotation", m.name)
				} else {
					g.logf("cluster: replica %s failed health check, removed from rotation", m.name)
					g.unpinMember(m)
				}
			}
		}
	}
}

func (g *Gateway) unpinMember(m *member) {
	g.pinMu.Lock()
	for tok, pm := range g.pins {
		if pm == m {
			delete(g.pins, tok)
		}
	}
	g.pinMu.Unlock()
}

// availableMembers snapshots the replicas a call may route to: in
// rotation per the health loop AND not held off by an open circuit.
func (g *Gateway) availableMembers() []*member {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*member, 0, len(g.members))
	for _, m := range g.members {
		if m.healthy.Load() && m.bk.Available() {
			out = append(out, m)
		}
	}
	return out
}

// rank orders candidates by rendezvous (highest-random-weight) hash of
// (affinity, member): the same affinity key always prefers the same
// replica while it is healthy, so the epoch-keyed query cache for that
// key stays hot on one node; when the replica set changes, only the keys
// that hashed to the lost node move.
func rank(candidates []*member, affinity string) []*member {
	out := append([]*member(nil), candidates...)
	weight := func(m *member) uint64 {
		h := fnv.New64a()
		h.Write([]byte(affinity))
		h.Write([]byte{0})
		h.Write([]byte(m.name))
		return h.Sum64()
	}
	sort.SliceStable(out, func(i, j int) bool { return weight(out[i]) > weight(out[j]) })
	return out
}

// pick chooses the replica for a call: the affinity favourite unless it
// is carrying affinitySpill more in-flight requests than the least
// loaded healthy replica, in which case the load winner takes it.
func (g *Gateway) pick(candidates []*member, affinity string) *member {
	if len(candidates) == 0 {
		return nil
	}
	ranked := rank(candidates, affinity)
	fav := ranked[0]
	least := candidates[0]
	for _, m := range candidates[1:] {
		if m.inflight.Load() < least.inflight.Load() {
			least = m
		}
	}
	if fav.inflight.Load() > least.inflight.Load()+affinitySpill {
		return least
	}
	return fav
}

// do routes one API call: admission (priority-aware), replica choice
// (session pin or affinity, gated by each replica's circuit breaker),
// execution, and budgeted failover with jittered backoff. Transport
// errors mark the replica suspect and — when safe and affordable — retry
// on the next-ranked one; application errors (including denials and
// DB-unavailability) pass straight through: no sibling replica can
// answer what the shared database cannot.
func (g *Gateway) do(affinity, token string, mutation bool, fn func(api dm.API) error) error {
	switch {
	case g.lim != nil:
		// Adaptive admission: the limiter decides, carrying its own
		// priority queueing, CoDel sojourn bound, and retry-after hints.
		permit, aerr := g.lim.Acquire(priorityOf(token, mutation))
		if aerr != nil {
			g.shed.Add(1)
			return aerr
		}
		defer permit.Release()
	case g.admit != nil:
		select {
		case g.admit <- struct{}{}:
		default:
			// Full house. Anonymous reads are the lowest-priority traffic —
			// shed them immediately (the stale cache may still answer them);
			// authenticated work and mutations may queue for their slot.
			if token == "" && !mutation {
				g.shed.Add(1)
				return &overload.Error{Tier: "gateway", RetryAfter: shedRetryAfter}
			}
			timer := time.NewTimer(g.opts.queueTimeout)
			select {
			case g.admit <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				g.shed.Add(1)
				return &overload.Error{Tier: "gateway", RetryAfter: shedRetryAfter}
			}
		}
		defer func() { <-g.admit }()
	}

	err := g.route(affinity, token, mutation, fn)
	if err != nil && overload.IsOverload(err) {
		// A downstream tier (replica admission or the database socket)
		// pushed back. Count it and fold it into the limiter as one
		// multiplicative decrease: end-to-end backpressure means the
		// gateway stops offering load the tiers below are refusing.
		g.dbOverloads.Add(1)
		if g.lim != nil {
			g.lim.Backpressure()
		}
	}
	if mutation {
		if err == nil {
			g.writeEpoch.Add(1)
		} else if dm.IsDBUnavailable(err) {
			g.writesFailed.Add(1)
		}
	}
	return err
}

// call routes one API call that returns a value through g.do.
func call[T any](g *Gateway, affinity, token string, mutation bool, fn func(dm.API) (T, error)) (T, error) {
	var out T
	err := g.do(affinity, token, mutation, func(api dm.API) (e error) {
		out, e = fn(api)
		return e
	})
	return out, err
}

// route picks replicas and drives the call; do() owns admission and
// write-epoch accounting around it.
func (g *Gateway) route(affinity, token string, mutation bool, fn func(api dm.API) error) error {
	// A live session is state on one replica: calls carrying its token
	// must land there. If that replica is gone — unhealthy, or its
	// circuit open after repeated failures — the session is gone with it:
	// demote now, fail over to a fresh choice, and let the caller re-auth
	// (the reply is a denial, not a transport error).
	if token != "" {
		g.pinMu.Lock()
		pinned := g.pins[token]
		g.pinMu.Unlock()
		if pinned != nil {
			if pinned.healthy.Load() && pinned.bk.TryAcquire() {
				err := g.callMember(pinned, fn)
				if err == nil || !dm.IsUnreachable(err) {
					return err
				}
				g.demote(token, pinned) // before noteFailure: it unpins wholesale
				g.noteFailure(pinned)
				if mutation && !dm.IsDialError(err) {
					return err // may have executed; do not re-run elsewhere
				}
			} else {
				g.demote(token, pinned)
			}
		}
	}

	candidates := g.availableMembers()
	if len(candidates) == 0 {
		return ErrNoReplicas
	}
	// Try order: load-aware affinity choice first, then the remaining
	// replicas in affinity-rank order.
	first := g.pick(candidates, affinity)
	order := []*member{first}
	for _, m := range rank(candidates, affinity) {
		if m != first {
			order = append(order, m)
		}
	}
	backoff := g.opts.RetryBackoff
	attempt := 0
	var lastErr error
	for _, m := range order {
		if attempt > 0 {
			// Failover retries spend from the shared budget: when the
			// bucket is dry the cluster is already drowning in retries,
			// and adding ours would deepen the outage.
			if !g.retry.take() {
				g.budgetDenied.Add(1)
				break
			}
		}
		if !m.bk.TryAcquire() {
			continue
		}
		if attempt > 0 {
			g.failovers.Add(1)
			time.Sleep(jitter(backoff))
			backoff *= 2
		}
		attempt++
		err := g.callMember(m, fn)
		if err == nil {
			return nil
		}
		transport := dm.IsUnreachable(err)
		if transport {
			g.noteFailure(m)
		}
		// Besides transport failures, an anonymous read that found the
		// database unavailable may try a sibling: the failure can be that
		// one replica's path to the database, not the database itself, and
		// rereading is free of side effects. Mutations never take this
		// branch — "unavailable" on a commit can mean the reply was lost
		// after the write landed.
		if !transport && !(token == "" && !mutation && dm.IsDBUnavailable(err)) {
			return err
		}
		lastErr = err
		if mutation && !dm.IsDialError(err) {
			// The request reached the replica before the wire broke: it
			// may have committed against the shared database. Retrying
			// would risk a duplicate — surface the failure instead.
			return err
		}
	}
	if lastErr == nil {
		return ErrNoReplicas // every candidate's circuit refused the call
	}
	return lastErr
}

// demote drops a session pin whose replica can no longer serve it.
func (g *Gateway) demote(token string, m *member) {
	g.pinMu.Lock()
	_, present := g.pins[token]
	delete(g.pins, token)
	g.pinMu.Unlock()
	if present {
		g.demotions.Add(1)
		g.logf("cluster: session demoted off replica %s", m.name)
	}
}

func (g *Gateway) callMember(m *member, fn func(api dm.API) error) error {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	err := fn(m.api)
	if err == nil || !dm.IsUnreachable(err) {
		m.served.Add(1)
		m.bk.Success()
	}
	return err
}

// noteFailure records a transport error against a replica: its breaker
// counts toward opening (a failed half-open probe re-opens immediately),
// and the replica leaves rotation until the health loop hears it answer
// probes again. Sessions pinned to it demote either way.
func (g *Gateway) noteFailure(m *member) {
	m.failed.Add(1)
	m.bk.Failure()
	if m.healthy.Swap(false) {
		g.logf("cluster: replica %s unreachable, removed from rotation", m.name)
	}
	g.unpinMember(m)
}

// canDegrade reports whether a read failure may be answered from the
// stale cache instead. Two regimes qualify: the live path is GONE (no
// replicas, transport failure everywhere, the shared database partitioned
// away), or the live path is DROWNING and the brownout ladder has climbed
// to its stale-reads rung — at which point a cached answer for an
// anonymous browse is exactly the load-shedding the ladder asked for.
// Below that rung, overload sheds pass through untouched: the caller
// should back off, and serving cache would hide early saturation.
func (g *Gateway) canDegrade(err error) bool {
	if errors.Is(err, ErrNoReplicas) || dm.IsUnreachable(err) || dm.IsDBUnavailable(err) {
		return true
	}
	return overload.IsOverload(err) && g.BrownoutStage() >= overload.StageStaleReads
}

// --- dm.API ---

// Authenticate routes to any healthy replica and pins the issued token
// to it: the session cache is that node's memory.
func (g *Gateway) Authenticate(user, password, ip, kind string) (*dm.SessionInfo, error) {
	var answered dm.API
	out, err := call(g, "auth:"+user, "", true, func(api dm.API) (*dm.SessionInfo, error) {
		answered = api
		return api.Authenticate(user, password, ip, kind)
	})
	if err != nil {
		return nil, err
	}
	var chosen *member
	g.mu.RLock()
	for _, m := range g.members {
		if m.api == answered {
			chosen = m
		}
	}
	g.mu.RUnlock()
	if chosen != nil {
		g.pinMu.Lock()
		g.pins[out.Token] = chosen
		g.pinMu.Unlock()
	}
	return out, nil
}

// Logout implements dm.API and releases the token's pin.
func (g *Gateway) Logout(token string) error {
	err := g.do("logout", token, false, func(api dm.API) error {
		return api.Logout(token)
	})
	g.pinMu.Lock()
	delete(g.pins, token)
	g.pinMu.Unlock()
	return err
}

// QueryHLEs implements dm.API. Anonymous results feed the stale cache;
// when the live path dies, the last public answer for this filter comes
// back tagged with a DegradedError.
func (g *Gateway) QueryHLEs(token, ip string, f dm.HLEFilter) ([]*schema.HLE, error) {
	return serveRead(g, "query-hles", filterAffinity(f), token, func(api dm.API) ([]*schema.HLE, error) {
		return api.QueryHLEs(token, ip, f)
	})
}

// CountHLEs implements dm.API (degradable like QueryHLEs; the method
// prefix keeps its cache entries apart — both share the filter key).
func (g *Gateway) CountHLEs(token, ip string, f dm.HLEFilter) (int, error) {
	return serveRead(g, "count-hles", filterAffinity(f), token, func(api dm.API) (int, error) {
		return api.CountHLEs(token, ip, f)
	})
}

// GetHLE implements dm.API (degradable).
func (g *Gateway) GetHLE(token, ip, id string) (*schema.HLE, error) {
	return serveRead(g, "get-hle", "hle:"+id, token, func(api dm.API) (*schema.HLE, error) {
		return api.GetHLE(token, ip, id)
	})
}

// AnalysesForHLE implements dm.API (degradable).
func (g *Gateway) AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error) {
	return serveRead(g, "analyses-for-hle", "hle:"+hleID, token, func(api dm.API) ([]*schema.ANA, error) {
		return api.AnalysesForHLE(token, ip, hleID)
	})
}

// GetANA implements dm.API (degradable).
func (g *Gateway) GetANA(token, ip, id string) (*schema.ANA, error) {
	return serveRead(g, "get-ana", "ana:"+id, token, func(api dm.API) (*schema.ANA, error) {
		return api.GetANA(token, ip, id)
	})
}

// ListCatalogs implements dm.API (degradable).
func (g *Gateway) ListCatalogs(token, ip string) ([]*dm.Catalog, error) {
	return serveRead(g, "list-catalogs", "catalogs", token, func(api dm.API) ([]*dm.Catalog, error) {
		return api.ListCatalogs(token, ip)
	})
}

// CreateHLE implements dm.API.
func (g *Gateway) CreateHLE(token, ip string, h *schema.HLE) (string, error) {
	return call(g, "create", token, true, func(api dm.API) (string, error) {
		return api.CreateHLE(token, ip, h)
	})
}

// ImportAnalysis implements dm.API.
func (g *Gateway) ImportAnalysis(token, ip string, a *schema.ANA, files []dm.StoredFile) (string, error) {
	return call(g, "import", token, true, func(api dm.API) (string, error) {
		return api.ImportAnalysis(token, ip, a, files)
	})
}

// FindExistingAnalysis implements dm.API.
func (g *Gateway) FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error) {
	return call(g, "find-ana", token, false, func(api dm.API) (*schema.ANA, error) {
		return api.FindExistingAnalysis(token, ip, spec)
	})
}

// Publish implements dm.API.
func (g *Gateway) Publish(token, ip, kind, id string) error {
	return g.do("publish:"+id, token, true, func(api dm.API) error {
		return api.Publish(token, ip, kind, id)
	})
}

// ReadItem implements dm.API.
func (g *Gateway) ReadItem(token, ip, itemID string) (*dm.ItemData, error) {
	return call(g, "item:"+itemID, token, false, func(api dm.API) (*dm.ItemData, error) {
		return api.ReadItem(token, ip, itemID)
	})
}

// UnitsInRange implements dm.API.
func (g *Gateway) UnitsInRange(token, ip string, t0, t1 float64) ([]*dm.UnitInfo, error) {
	return call(g, fmt.Sprintf("units:%g:%g", t0, t1), token, false, func(api dm.API) ([]*dm.UnitInfo, error) {
		return api.UnitsInRange(token, ip, t0, t1)
	})
}

// filterAffinity renders a browse filter as a routing key so identical
// filters — the unit of the DM's epoch-keyed query cache — keep hitting
// the replica whose cache already holds them. It also keys the stale
// cache, so distinct filters must render distinctly: the string fields
// are quoted, or {Kind:"a:", Owner:"b"} and {Kind:"a", Owner:":b"} would
// share one key.
func filterAffinity(f dm.HLEFilter) string {
	return fmt.Sprintf("q:%q:%q:%t%d:%t%g-%g:%q:%t:%d:%d",
		f.Kind, f.Owner, f.HasDay, f.Day, f.HasTime, f.TimeFrom, f.TimeTo,
		f.Catalog, f.OrderDesc, f.Offset, f.Limit)
}
