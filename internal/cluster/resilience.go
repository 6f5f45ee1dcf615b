package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dm"
)

// Resilience machinery the chaos harness demanded: a per-replica circuit
// breaker (stop hammering a replica that keeps failing; probe it gently —
// the breaker itself lives in internal/circuit, shared with the shard
// router), a global retry budget (failover is a multiplier on offered
// load — cap it before a partial outage becomes a retry storm), and a
// stale cache keyed on the gateway write epoch (when the shared database
// is gone, answering yesterday's browse query beats answering nothing —
// the paper's archive is append-mostly, so stale reads are wrong only in
// what they omit).

// --- retry budget ---

// retryBudget is a token bucket shared by every request: each failover
// retry spends one token. When an outage makes every call retry, the
// bucket drains and retries stop — the cluster fails fast instead of
// tripling its own load at the worst possible moment.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
	refill float64 // tokens per second
	last   time.Time
}

func newRetryBudget(refillPerSec float64, burst int) *retryBudget {
	return &retryBudget{
		tokens: float64(burst), burst: float64(burst),
		refill: refillPerSec, last: time.Now(),
	}
}

func (rb *retryBudget) advance(now time.Time) {
	rb.tokens += now.Sub(rb.last).Seconds() * rb.refill
	if rb.tokens > rb.burst {
		rb.tokens = rb.burst
	}
	rb.last = now
}

// take spends one retry token, reporting false when the budget is dry.
func (rb *retryBudget) take() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.advance(time.Now())
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}

// remaining reports the current token count (for /stats).
func (rb *retryBudget) remaining() float64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.advance(time.Now())
	return rb.tokens
}

// jitter spreads a backoff pause over [d/2, 3d/2): synchronized retries
// from N callers would otherwise re-converge on the struggling replica in
// lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// --- degraded-mode stale cache ---

// DegradedError marks a response served from the gateway's stale cache
// because the live path could not answer. The result it accompanies is
// real data from an earlier epoch — the caller chooses whether to show
// it (browse pages do, flagged) or treat it as the failure it wraps.
type DegradedError struct {
	// Age is how long ago the served value was cached.
	Age time.Duration
	// Epoch is the gateway write epoch when the value was cached;
	// StaleWrites is how many writes the gateway has accepted since, an
	// upper bound on how much the value can be missing.
	Epoch       uint64
	StaleWrites uint64
	// Cause is the live-path failure that forced degradation.
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("cluster: degraded response (cached %v ago, %d writes behind): %v",
		e.Age.Round(time.Millisecond), e.StaleWrites, e.Cause)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// Degraded is the structural marker upper layers test for.
func (e *DegradedError) Degraded() bool { return true }

// IsDegraded reports whether err marks a stale-but-served response.
func IsDegraded(err error) bool {
	var d interface{ Degraded() bool }
	return errors.As(err, &d) && d.Degraded()
}

// staleEntries bounds the degraded-mode cache of anonymous browse results.
const staleEntries = 1024

// staleValue is one cached read result; its epoch — the gateway write
// epoch at caching time — is the one the cache stores it under.
type staleValue struct {
	val any
	at  time.Time
}

// serveRead routes one anonymous-cacheable gateway read. Successful
// anonymous results refresh Gateway.stale — the most recent answer per
// method+affinity, read back only with GetStale; only public (tokenless)
// results are ever stored, so degradation can never leak a private row to
// the wrong session. A failure that means "the serving path is gone" (no
// replicas, transport failure everywhere, the shared database partitioned
// away) is converted — for anonymous callers with a cached value — into
// that value plus a DegradedError tag. Overload shedding is never
// converted: the data path works, the caller should back off, and serving
// cache would hide saturation.
func serveRead[T any](g *Gateway, method, affinity, token string, fn func(dm.API) (T, error)) (T, error) {
	v, err := call(g, affinity, token, false, fn)
	if token != "" {
		return v, err // private result: never cached, never degraded
	}
	key := method + "|" + affinity
	if err == nil {
		g.stale.Put(key, g.writeEpoch.Load(), staleValue{val: v, at: time.Now()}, 1)
		return v, nil
	}
	if !g.canDegrade(err) {
		return v, err
	}
	e, epoch, ok := g.stale.GetStale(key)
	if !ok {
		return v, err
	}
	g.degradedServes.Add(1)
	return e.val.(T), &DegradedError{
		Age:         time.Since(e.at),
		Epoch:       epoch,
		StaleWrites: g.writeEpoch.Load() - epoch,
		Cause:       err,
	}
}
