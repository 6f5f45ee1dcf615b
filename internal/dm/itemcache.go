package dm

import (
	"container/list"
	"sync"
)

// Decoded-item cache: a byte-bounded LRU of decoded archive items (raw
// units as photon record tables, wavelet views as *wavelet.Encoded) keyed
// by item id. RawPhotons and ViewsInRange read through it so that the
// units under a window are inflated once, not once per analysis.
//
// It needs no epoch, and is therefore NOT a fourth epoch-keyed cache for
// ROADMAP 4(c) to fold with cache.go, pl/memo.go and the gateway's stale
// cache: item ids are never reused and an item's bytes are write-once on
// every tier (pl's CacheKey and asof.go rely on the same facts), so an
// entry can never be stale. Everything that CAN change — the name mapping,
// visibility, which archives are mounted — lives in location tuples, and
// readDecoded re-checks those on every call, hit or miss.
//
// Ingest writes around it (LoadUnit neither reads nor fills), and the
// budget is a constant: the entries are the compact on-disk record form,
// so 64 MiB holds about 3.7 M photons.

const decodedBudget = 64 << 20 // bytes of decoded payload resident at most

type itemCache struct {
	budget int64
	stats  *Stats

	mu      sync.Mutex
	lru     *list.List // of *cachedItem, most recently used in front
	byID    map[string]*list.Element
	loading map[string]*itemLoad
}

type cachedItem struct {
	id   string
	val  any
	size int64
}

// itemLoad is one decode in flight; concurrent misses on its item wait on
// done instead of decoding again.
type itemLoad struct {
	done chan struct{}
	val  any
	err  error
}

func newItemCache(budget int64, stats *Stats) *itemCache {
	return &itemCache{
		budget: budget, stats: stats,
		lru: list.New(), byID: make(map[string]*list.Element), loading: make(map[string]*itemLoad),
	}
}

// get returns the decoded value of item id, calling load (which returns
// the value and the bytes it keeps resident) on a miss. Values are SHARED
// between callers: treat them as immutable.
func (c *itemCache) get(id string, load func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if el, ok := c.byID[id]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.stats.UnitCacheHits.Add(1)
		return el.Value.(*cachedItem).val, nil
	}
	if l, ok := c.loading[id]; ok {
		c.mu.Unlock()
		<-l.done
		if l.err == nil {
			c.stats.UnitCacheHits.Add(1)
		}
		return l.val, l.err
	}
	l := &itemLoad{done: make(chan struct{})}
	c.loading[id] = l
	c.mu.Unlock()

	c.stats.UnitCacheMisses.Add(1)
	var size int64
	l.val, size, l.err = load()

	c.mu.Lock()
	delete(c.loading, id)
	if l.err == nil && size <= c.budget {
		c.byID[id] = c.lru.PushFront(&cachedItem{id: id, val: l.val, size: size})
		used := c.stats.UnitCacheBytes.Add(size)
		for used > c.budget {
			old := c.lru.Remove(c.lru.Back()).(*cachedItem)
			delete(c.byID, old.id)
			used = c.stats.UnitCacheBytes.Add(-old.size)
			c.stats.UnitCacheEvictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(l.done)
	return l.val, l.err
}
