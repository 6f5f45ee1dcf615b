package pl

import "repro/internal/epochcache"

// Result memoization for the processing farm. Repeated analyses of quiet
// periods dominate scientific load (canned views, re-run reports), and an
// analysis delivery is a pure function of its canonical parameters and
// the state of the tables it reads — so Frontend.memo caches deliveries
// under (routine + canonical params, data epoch tag) in an epochcache.Cache,
// whose package comment is the invalidation contract: a commit to an input
// table changes the tag and the next lookup misses. The tag is captured
// BEFORE any staging work. Deliveries are SHARED between callers —
// immutable by contract.

const memoEntries = 1024 // deliveries resident at most

// CacheKeyer is implemented by strategies whose deliveries are memoizable:
// CacheKey returns a canonical parameter key and the epoch tag of the data
// the delivery depends on. ok=false opts the request out (e.g. params that
// fail to decode — let Prepare produce the real error).
type CacheKeyer interface {
	CacheKey(req *Request) (key, epoch string, ok bool)
}

// MemoStats counts result-cache traffic.
type MemoStats = epochcache.Stats
