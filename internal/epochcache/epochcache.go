// Package epochcache is the one cache behind every epoch-validated cache in
// the system: the DM's query/analytics cache, the processing farm's result
// memo, the gateway's degraded-mode stale cache and the DM's decoded-item
// cache.
//
// The contract. An entry is stored under (key, epoch) and is valid exactly
// while the epoch it was computed against is still current: Get answers only
// when the caller's epoch equals the stored one. There are no timers and no
// invalidation calls — whatever bumps the epoch (a table commit, a gateway
// write) turns the next lookup into a miss. The caller reads the epoch
// BEFORE it computes the value it is about to store: a change racing the
// computation then parks the entry under the older epoch, a future miss
// rather than a stale hit. Conservative, never stale — unless the caller
// asks, with GetStale, for whatever sits under the key together with the
// epoch it was stored under (the brownout ladder's stale-read rung, the
// gateway's lifeboat when the database is gone). Epochs are compared for
// equality only; a cache whose values can never go stale passes a constant.
//
// Values are SHARED between callers: treat them as immutable.
//
// Capacity is a budget in cost units — entry-counted users pass cost 1, the
// decoded-item cache passes resident bytes — and overflow evicts by the
// CLOCK (second-chance) rule: the hand sweeps the ring, spares each
// recently-used entry once by clearing its reference bit, and evicts the
// first entries found cold until the newcomer fits. A stampede of one-shot
// keys therefore recycles the same cold slots while the hot working set —
// exactly the entries a flare-alert crowd keeps re-reading — survives;
// dropping everything at the cap would destroy it at the worst possible
// moment.
package epochcache

import "sync"

// Stats is the one counter shape every user reports from.
type Stats struct {
	Hits      int64 // Get or Do answered from the cache, or Do joined a load in flight
	Misses    int64 // Get found nothing fresh, or Do ran its load
	Evictions int64
	Entries   int
	Cost      int64 // sum of the resident entries' costs, never above the budget
}

// HitRate is hits over attempted lookups (0 when none).
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// slot is one CLOCK ring position: the entry plus its reference bit.
type slot[E comparable, V any] struct {
	key   string
	epoch E
	val   V
	cost  int64
	ref   bool
	live  bool // false: evicted, waiting on the free list
}

// flightKey names one load in flight. The epoch is part of it: a caller
// holding a newer epoch must not be handed what an older load computes.
type flightKey[E comparable] struct {
	key   string
	epoch E
}

// flight is one load in flight; concurrent misses on its (key, epoch) wait
// on done instead of loading again.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache maps keys to values tagged with the epoch they were computed
// against. Safe for concurrent use.
type Cache[E comparable, V any] struct {
	budget int64

	mu      sync.Mutex
	index   map[string]int // key -> ring position
	ring    []slot[E, V]
	free    []int // evicted ring positions not yet reused
	hand    int
	cost    int64
	flights map[flightKey[E]]*flight[V]

	hits, misses, evictions int64
}

// New returns an empty cache holding at most budget cost units.
func New[E comparable, V any](budget int64) *Cache[E, V] {
	return &Cache[E, V]{
		budget:  budget,
		index:   make(map[string]int),
		flights: make(map[flightKey[E]]*flight[V]),
	}
}

// Get returns the value under key if it was stored under epoch, marking
// the entry recently-used for the eviction sweep.
func (c *Cache[E, V]) Get(key string, epoch E) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.hit(key, epoch)
	if !ok {
		c.misses++
	}
	return v, ok
}

// hit is the one epoch compare; under c.mu.
func (c *Cache[E, V]) hit(key string, epoch E) (v V, ok bool) {
	if i, found := c.index[key]; found && c.ring[i].epoch == epoch {
		c.ring[i].ref = true
		c.hits++
		return c.ring[i].val, true
	}
	return v, false
}

// GetStale returns whatever sits under key and the epoch it was stored
// under. The caller decides whether an answer from that epoch is
// acceptable; it counts as neither hit nor miss.
func (c *Cache[E, V]) GetStale(key string) (v V, epoch E, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, found := c.index[key]; found {
		c.ring[i].ref = true
		return c.ring[i].val, c.ring[i].epoch, true
	}
	return v, epoch, false
}

// Put stores v under (key, epoch) at the given cost, evicting cold entries
// until it fits. A value costing more than the whole budget is not
// admitted (and leaves any older entry under key in place).
func (c *Cache[E, V]) Put(key string, epoch E, v V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, epoch, v, cost)
}

func (c *Cache[E, V]) put(key string, epoch E, v V, cost int64) {
	if cost > c.budget {
		return
	}
	// Same key again (typically a fresher epoch): overwrite in place. The
	// slot keeps its ring position and earns a reference — it is
	// demonstrably live — and the sweep below may not take it.
	at, overwrite := c.index[key]
	if overwrite {
		c.cost -= c.ring[at].cost
	} else {
		at = -1
	}
	// Sweep the hand until the newcomer fits. Terminates: the first lap
	// clears every reference bit at worst, the second evicts everything
	// but slot at, and cost fits an empty cache.
	for c.cost+cost > c.budget {
		i := c.hand
		c.hand = (c.hand + 1) % len(c.ring)
		s := &c.ring[i]
		switch {
		case !s.live:
		case s.ref || i == at:
			s.ref = false
		default:
			delete(c.index, s.key)
			c.cost -= s.cost
			c.evictions++
			*s = slot[E, V]{}
			c.free = append(c.free, i)
		}
	}
	switch {
	case overwrite:
	case len(c.free) > 0:
		at = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		at = len(c.ring)
		c.ring = append(c.ring, slot[E, V]{})
	}
	c.index[key] = at
	c.ring[at] = slot[E, V]{key: key, epoch: epoch, val: v, cost: cost, ref: overwrite, live: true}
	c.cost += cost
}

// Do returns the value under (key, epoch), calling load — which returns
// the value and its cost — on a miss and storing what it returns.
// Concurrent misses on the same (key, epoch) run load once and share its
// result; a caller holding a different epoch runs its own. A failed load
// is not cached and its joiners get its error. hit reports a value served
// without this call running load: a fresh entry, or a load it joined.
func (c *Cache[E, V]) Do(key string, epoch E, load func() (V, int64, error)) (v V, hit bool, err error) {
	fk := flightKey[E]{key, epoch}
	c.mu.Lock()
	if cached, ok := c.hit(key, epoch); ok {
		c.mu.Unlock()
		return cached, true, nil
	}
	if f, ok := c.flights[fk]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.val, f.err == nil, f.err
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[fk] = f
	c.mu.Unlock()

	var cost int64
	f.val, cost, f.err = load()

	c.mu.Lock()
	delete(c.flights, fk)
	if f.err == nil {
		c.put(key, epoch, f.val, cost)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Stats returns the counters and the current occupancy.
func (c *Cache[E, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.index), Cost: c.cost}
}
