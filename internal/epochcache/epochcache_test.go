package epochcache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetPutAcrossEpochs walks one key through the contract: fresh hit only
// at the stored epoch, GetStale at any, overwrite replaces the epoch.
func TestGetPutAcrossEpochs(t *testing.T) {
	c := New[uint64, string](4)
	steps := []struct {
		name      string
		put       bool // Put(key, epoch, val) first
		key       string
		epoch     uint64
		val       string
		wantFresh bool
		wantStale string // "" = GetStale finds nothing
		staleAt   uint64
	}{
		{name: "empty", key: "k", epoch: 1},
		{name: "stored", put: true, key: "k", epoch: 1, val: "v1", wantFresh: true, wantStale: "v1", staleAt: 1},
		{name: "newer epoch misses, stale remains", key: "k", epoch: 2, wantStale: "v1", staleAt: 1},
		{name: "older epoch misses too", key: "k", epoch: 0, wantStale: "v1", staleAt: 1},
		{name: "overwrite at fresher epoch", put: true, key: "k", epoch: 2, val: "v2", wantFresh: true, wantStale: "v2", staleAt: 2},
		{name: "old epoch no longer served", key: "k", epoch: 1, wantStale: "v2", staleAt: 2},
		{name: "other key untouched", key: "other", epoch: 2},
	}
	for _, s := range steps {
		if s.put {
			c.Put(s.key, s.epoch, s.val, 1)
		}
		v, ok := c.Get(s.key, s.epoch)
		if ok != s.wantFresh || (ok && v != s.wantStale) {
			t.Fatalf("%s: Get = %q, %v; want fresh=%v", s.name, v, ok, s.wantFresh)
		}
		v, at, ok := c.GetStale(s.key)
		if ok != (s.wantStale != "") || v != s.wantStale || at != s.staleAt {
			t.Fatalf("%s: GetStale = %q @%d, %v; want %q @%d", s.name, v, at, ok, s.wantStale, s.staleAt)
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 5 || st.Entries != 1 || st.Cost != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClockKeepsHotEntries: a flood of one-shot keys past capacity must
// recycle cold slots and spare the hot working set — the CLOCK
// second-chance property a drop-everything policy lacks.
func TestClockKeepsHotEntries(t *testing.T) {
	c := New[string, int](8)
	hot := func(i int) string { return fmt.Sprintf("hot-%d", i) }

	// A hot working set of 4, touched so every entry holds a reference bit.
	for i := 0; i < 4; i++ {
		c.Put(hot(i), "e1", i, 1)
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(hot(i), "e1"); !ok {
			t.Fatalf("hot-%d missing before overflow", i)
		}
	}
	// Stampede: 80 one-shot keys, 10x capacity, never read back — while the
	// hot set keeps being read, as a flare-alert crowd keeps re-reading the
	// same canned views. Each read renews the reference bit, so the hand
	// finds the hot slots warm and recycles the cold ones instead.
	for i := 0; i < 80; i++ {
		c.Put(fmt.Sprintf("cold-%d", i), "e1", i, 1)
		c.Get(hot(i%4), "e1")
	}
	for i := 0; i < 4; i++ {
		if v, ok := c.Get(hot(i), "e1"); !ok || v != i {
			t.Fatalf("hot-%d evicted by a one-shot stampede", i)
		}
	}
	if st := c.Stats(); st.Entries != 8 || st.Evictions != 76 {
		t.Fatalf("stats = %+v, want 8 entries after 76 evictions", st)
	}
}

// TestOverwriteInPlace: re-putting an existing key (fresh epoch) must not
// consume a new slot or evict anyone, and earns the entry a reference.
func TestOverwriteInPlace(t *testing.T) {
	c := New[string, int](4)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k-%d", i), "e1", i, 1)
	}
	for e := 2; e < 10; e++ {
		c.Put("k-0", fmt.Sprintf("e%d", e), e, 1)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 4 || st.Cost != 4 {
		t.Fatalf("in-place overwrites: %+v", st)
	}
	if v, ok := c.Get("k-0", "e9"); !ok || v != 9 {
		t.Fatal("latest epoch not served after overwrites")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("k-%d", i), "e1"); !ok {
			t.Fatalf("k-%d lost to an overwrite of a different key", i)
		}
	}
	// The reference an overwrite earns: the next eviction takes the cold
	// neighbour, not the entry just refreshed.
	c = New[string, int](2)
	c.Put("a", "e1", 1, 1)
	c.Put("b", "e1", 2, 1)
	c.Put("a", "e2", 3, 1) // overwrite: referenced
	c.Put("c", "e1", 4, 1) // evicts the cold one
	if _, ok := c.Get("a", "e2"); !ok {
		t.Fatal("overwritten entry evicted ahead of a cold one")
	}
	if _, _, ok := c.GetStale("b"); ok {
		t.Fatal("cold entry survived the eviction")
	}
}

// TestWeightedEviction: cost, not entry count, is what the budget bounds.
func TestWeightedEviction(t *testing.T) {
	const budget = 100
	c := New[struct{}, int](budget)
	rng := rand.New(rand.NewSource(1))
	check := func(op string) {
		t.Helper()
		if st := c.Stats(); st.Cost > budget || st.Cost < 0 {
			t.Fatalf("after %s: cost %d outside [0, %d]", op, st.Cost, budget)
		}
	}
	for i := 0; i < 500; i++ {
		key, cost := fmt.Sprintf("k%d", rng.Intn(60)), int64(1+rng.Intn(40))
		if i%2 == 0 {
			c.Put(key, struct{}{}, i, cost)
			check("Put")
		} else {
			if _, _, err := c.Do(key, struct{}{}, func() (int, int64, error) { return i, cost, nil }); err != nil {
				t.Fatal(err)
			}
			check("Do")
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("500 weighted inserts never evicted")
	}

	// One big newcomer evicts as many small entries as it needs.
	c = New[struct{}, int](budget)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("small-%d", i), struct{}{}, i, 10)
	}
	c.Put("big", struct{}{}, 0, 35)
	if st := c.Stats(); st.Evictions != 4 || st.Entries != 7 || st.Cost != 95 {
		t.Fatalf("big newcomer: %+v, want 4 evictions, 7 entries, cost 95", st)
	}

	// An over-budget value is returned by Do but never admitted, and leaves
	// what was there alone.
	before := c.Stats()
	v, hit, err := c.Do("huge", struct{}{}, func() (int, int64, error) { return 42, budget + 1, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("over-budget Do = %d, %v", v, err)
	}
	c.Put("big", struct{}{}, 1, budget+1)
	after := c.Stats()
	if _, _, ok := c.GetStale("huge"); ok || after.Entries != before.Entries || after.Cost != before.Cost {
		t.Fatalf("over-budget value admitted: %+v -> %+v", before, after)
	}
	if v, ok := c.Get("big", struct{}{}); !ok || v != 0 {
		t.Fatal("over-budget overwrite displaced the resident entry")
	}
}

// arrive blocks a load until n callers have announced themselves, so that
// the load is demonstrably still in flight when they look for it.
func arrive(entered *atomic.Int64, n int64) {
	for entered.Load() < n {
		runtime.Gosched()
	}
}

// TestDoConcurrentMissesLoadOnce: eight concurrent misses on one
// (key, epoch) run load once; every caller gets its value.
func TestDoConcurrentMissesLoadOnce(t *testing.T) {
	const callers = 8
	c := New[uint64, string](16)
	var entered, loads, hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			v, hit, err := c.Do("k", 7, func() (string, int64, error) {
				loads.Add(1)
				arrive(&entered, callers)
				return "loaded", 1, nil
			})
			if err != nil || v != "loaded" {
				t.Errorf("Do = %q, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Fatalf("%d loads for %d concurrent misses on one (key, epoch)", got, callers)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 || hits.Load() != callers-1 {
		t.Fatalf("stats = %+v, %d callers reported a hit", st, hits.Load())
	}
}

// TestDoEpochsDoNotShareALoad: a caller holding a newer epoch never joins
// an older load and is never handed its result; a failed load is not
// cached and its joiners get its error.
func TestDoEpochsDoNotShareALoad(t *testing.T) {
	c := New[uint64, string](16)
	oldStarted, releaseOld := make(chan struct{}), make(chan struct{})
	var loads atomic.Int64
	oldDone := make(chan string)
	go func() {
		v, _, _ := c.Do("k", 1, func() (string, int64, error) {
			loads.Add(1)
			close(oldStarted)
			<-releaseOld
			return "old", 1, nil
		})
		oldDone <- v
	}()
	<-oldStarted
	// The epoch-1 load is in flight and blocked. An epoch-2 caller must run
	// its own load and return without waiting for it.
	v, hit, err := c.Do("k", 2, func() (string, int64, error) {
		loads.Add(1)
		return "new", 1, nil
	})
	if err != nil || hit || v != "new" {
		t.Fatalf("newer-epoch Do = %q, %v; want its own load's value", v, err)
	}
	close(releaseOld)
	if v := <-oldDone; v != "old" {
		t.Fatalf("older-epoch Do = %q", v)
	}
	if got := loads.Load(); got != 2 {
		t.Fatalf("%d loads for two epochs, want 2", got)
	}
	// Whichever Put landed last, no epoch is served another epoch's value.
	if v, ok := c.Get("k", 2); ok && v != "new" {
		t.Fatalf("epoch 2 served %q", v)
	}
	if v, ok := c.Get("k", 1); ok && v != "old" {
		t.Fatalf("epoch 1 served %q", v)
	}

	boom := errors.New("boom")
	var entered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			if _, hit, err := c.Do("bad", 1, func() (string, int64, error) {
				arrive(&entered, 4)
				return "", 1, boom
			}); hit || !errors.Is(err, boom) {
				t.Errorf("failed load: hit = %v, err = %v", hit, err)
			}
		}()
	}
	wg.Wait()
	if _, _, ok := c.GetStale("bad"); ok {
		t.Fatal("failed load was cached")
	}
}

// TestRandomTraceAgainstModel replays a seeded trace against a map that
// never evicts. The cache may forget (evictions) but never lie: a Get
// answers only with the value last stored under that key AND that epoch,
// and Entries/Cost are the model's minus what was evicted.
func TestRandomTraceAgainstModel(t *testing.T) {
	type stored struct {
		epoch uint64
		val   int
		cost  int64
	}
	const budget = 64
	c := New[uint64, int](budget)
	model := make(map[string]stored)
	rng := rand.New(rand.NewSource(20030609))
	for step := 0; step < 5000; step++ {
		key, epoch := fmt.Sprintf("k%d", rng.Intn(200)), uint64(rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			cost := int64(1 + rng.Intn(4))
			c.Put(key, epoch, step, cost)
			model[key] = stored{epoch, step, cost}
		case 1:
			cost := int64(1 + rng.Intn(4))
			v, hit, err := c.Do(key, epoch, func() (int, int64, error) { return step, cost, nil })
			if err != nil {
				t.Fatal(err)
			}
			if m, ok := model[key]; hit && (!ok || m.epoch != epoch || m.val != v) {
				t.Fatalf("step %d: Do(%s, %d) = %d, model holds %+v", step, key, epoch, v, m)
			}
			if !hit {
				model[key] = stored{epoch, step, cost}
			}
		case 2:
			if v, ok := c.Get(key, epoch); ok {
				if m := model[key]; m.epoch != epoch || m.val != v {
					t.Fatalf("step %d: Get(%s, %d) = %d, model holds %+v", step, key, epoch, v, m)
				}
			}
		case 3:
			if v, at, ok := c.GetStale(key); ok {
				if m := model[key]; m.epoch != at || m.val != v {
					t.Fatalf("step %d: GetStale(%s) = %d @%d, model holds %+v", step, key, v, at, m)
				}
			}
		}
		st := c.Stats()
		if st.Cost > budget {
			t.Fatalf("step %d: cost %d over budget", step, st.Cost)
		}
		// Every resident entry is the model's entry; the model's others
		// were evicted.
		var cost int64
		resident := 0
		for k, m := range model {
			if v, at, ok := c.peek(k); ok {
				if v != m.val || at != m.epoch {
					t.Fatalf("step %d: resident %s = %d @%d, model holds %+v", step, k, v, at, m)
				}
				resident++
				cost += m.cost
			}
		}
		if st.Entries != resident || st.Cost != cost {
			t.Fatalf("step %d: stats %+v, model's resident entries %d cost %d", step, st, resident, cost)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("trace never evicted")
	}
}

// peek is GetStale without the reference bit, so that checking the model
// does not steer the eviction it checks.
func (c *Cache[E, V]) peek(key string) (V, E, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		var v V
		var e E
		return v, e, false
	}
	return c.ring[i].val, c.ring[i].epoch, true
}

var sink atomic.Int64

// BenchmarkGetParallel is the layer's microbenchmark: fresh hits on a full
// entry-counted cache from every CPU, the path browse traffic takes.
func BenchmarkGetParallel(b *testing.B) {
	const entries = 4096
	c := New[uint64, int](entries)
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("fingerprint-%d", i)
		c.Put(keys[i], 1, i, 1)
	}
	b.RunParallel(func(pb *testing.PB) {
		i, sum := 0, 0
		for pb.Next() {
			v, _ := c.Get(keys[i%entries], 1)
			sum += v
			i++
		}
		sink.Add(int64(sum))
	})
}
