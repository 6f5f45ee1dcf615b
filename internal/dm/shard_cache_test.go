package dm

import (
	"fmt"
	"io"
	"log"
	"sync/atomic"
	"testing"

	"repro/internal/archive"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// newShardedTestDM builds a DM whose metadata engine is a 2-shard router —
// the deployment shape the Figure 5 sharded experiment runs.
func newShardedTestDM(t *testing.T) (*DM, *shard.Router) {
	return newCountingShardedDM(t, new(atomic.Int64))
}

// epochCounter counts the TableEpoch reads of one shard engine.
type epochCounter struct {
	minidb.Engine
	reads *atomic.Int64
}

func (e epochCounter) TableEpoch(name string) uint64 {
	e.reads.Add(1)
	return e.Engine.TableEpoch(name)
}

// newCountingShardedDM is newShardedTestDM with every shard's TableEpoch
// reads counted into reads.
func newCountingShardedDM(t *testing.T, reads *atomic.Int64) (*DM, *shard.Router) {
	t.Helper()
	shards := make(map[int]minidb.Engine, 2)
	for i := 0; i < 2; i++ {
		db, err := minidb.Open("", schema.AllSchemas()...)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = epochCounter{db, reads}
	}
	r, err := shard.NewRouter(shard.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	arch, err := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Options{
		Node:    "dm-sharded-test",
		MetaDB:  r,
		URLRoot: "http://hedc.test",
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/archives/disk-0"); err != nil {
		t.Fatal(err)
	}
	return d, r
}

// hleIDOnShard fabricates a fresh hle_id (never returned twice) whose
// partition key routes to the wanted shard under the router's current map.
var hleProbeSeq int

func hleIDOnShard(t *testing.T, r *shard.Router, want int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		hleProbeSeq++
		id := fmt.Sprintf("hle-probe-%06d", hleProbeSeq)
		if r.Map().ReadOwner(shard.SlotOf(minidb.S(id))) == want {
			return id
		}
	}
	t.Fatal("no id found for shard")
	return ""
}

// TestShardedCacheSurvivesOtherShardWrites is the satellite-5 regression:
// with per-shard epochs, a commit on shard k invalidates only shard k's
// slice of the cache. A point read pinned to shard 0 must keep hitting
// across writes to shard 1, and must miss (freshly) after a write to
// shard 0.
func TestShardedCacheSurvivesOtherShardWrites(t *testing.T) {
	d, r := newShardedTestDM(t)
	alice := newScientist(t, d, "alice")

	id0 := hleIDOnShard(t, r, 0)
	id1a := hleIDOnShard(t, r, 1)
	seed := func(id string) {
		h := schema.HLE{ID: id, Owner: "alice", Public: true, KindHint: "flare",
			Origin: "user", Version: 1, CalibVersion: 1}
		if _, err := r.Insert(schema.TableHLE, h.ToRow()); err != nil {
			t.Fatal(err)
		}
	}
	seed(id0)
	seed(id1a)

	// Warm the cache on a shard-0 point read.
	if _, err := d.GetHLE(alice, id0); err != nil {
		t.Fatal(err)
	}
	hits0 := d.stats.QueryCacheHits.Load()
	if _, err := d.GetHLE(alice, id0); err != nil {
		t.Fatal(err)
	}
	if got := d.stats.QueryCacheHits.Load(); got != hits0+1 {
		t.Fatalf("repeat read did not hit the cache (%d -> %d)", hits0, got)
	}

	// Commits on shard 1 must not evict shard 0's cached reads. (Under
	// the old all-or-nothing TableEpoch key every one of these writes
	// flushed the whole hle slice.)
	for i := 0; i < 5; i++ {
		seed(hleIDOnShard(t, r, 1))
	}
	hits1 := d.stats.QueryCacheHits.Load()
	misses1 := d.stats.QueryCacheMisses.Load()
	if _, err := d.GetHLE(alice, id0); err != nil {
		t.Fatal(err)
	}
	if got := d.stats.QueryCacheHits.Load(); got != hits1+1 {
		t.Fatalf("shard-1 writes evicted a shard-0 read (hits %d -> %d, misses %d -> %d)",
			hits1, got, misses1, d.stats.QueryCacheMisses.Load())
	}

	// A commit on shard 0 is a real invalidation: the next read misses
	// and sees the new state.
	rid, err := r.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(id0)}}})
	if err != nil || len(rid.RowIDs) != 1 {
		t.Fatalf("lookup %s: %v", id0, err)
	}
	row := append(minidb.Row(nil), rid.Rows[0]...)
	sc := r.Schema(schema.TableHLE)
	row[sc.ColIndex("label")] = minidb.S("bumped")
	if err := r.Update(schema.TableHLE, rid.RowIDs[0], row); err != nil {
		t.Fatal(err)
	}
	misses2 := d.stats.QueryCacheMisses.Load()
	h, err := d.GetHLE(alice, id0)
	if err != nil {
		t.Fatal(err)
	}
	if d.stats.QueryCacheMisses.Load() != misses2+1 {
		t.Fatal("shard-0 write did not invalidate the shard-0 read")
	}
	if h.Label != "bumped" {
		t.Fatalf("stale read after shard-0 write: label %q", h.Label)
	}
}

// TestShardedWasteVsPerShardEpochs quantifies the fix: under a mixed
// workload of reads pinned to shard 0 and writes landing on shard 1, the
// hit rate with per-shard epochs stays high where the all-table key
// would have made every read a miss.
func TestShardedWasteVsPerShardEpochs(t *testing.T) {
	d, r := newShardedTestDM(t)
	alice := newScientist(t, d, "alice")
	id0 := hleIDOnShard(t, r, 0)
	h := schema.HLE{ID: id0, Owner: "alice", Public: true, KindHint: "flare",
		Origin: "user", Version: 1, CalibVersion: 1}
	if _, err := r.Insert(schema.TableHLE, h.ToRow()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetHLE(alice, id0); err != nil { // warm
		t.Fatal(err)
	}

	const rounds = 20
	hits0 := d.stats.QueryCacheHits.Load()
	for i := 0; i < rounds; i++ {
		w := schema.HLE{ID: hleIDOnShard(t, r, 1),
			Owner: "alice", Origin: "user", Version: 1, CalibVersion: 1}
		if _, err := r.Insert(schema.TableHLE, w.ToRow()); err != nil {
			t.Fatal(err)
		}
		if _, err := d.GetHLE(alice, id0); err != nil {
			t.Fatal(err)
		}
	}
	hits := d.stats.QueryCacheHits.Load() - hits0
	if hits != rounds {
		t.Fatalf("hit rate under cross-shard writes: %d/%d reads hit, want all", hits, rounds)
	}
}
