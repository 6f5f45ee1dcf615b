package shard

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// mapSeeds builds deterministic seed inputs for FuzzDecodeShardMap:
// well-formed maps plus truncated and corrupted variants, so the fuzzer
// starts inside the format. The checked-in corpus also keeps two maps an
// earlier build wrote mid-split (seed-03, seed-04), which must be refused.
func mapSeeds() [][]byte {
	var seeds [][]byte
	for _, m := range []*Map{
		NewMap([]int{0}),
		NewMap([]int{0, 1}),
		NewMap([]int{0, 1, 2, 5, 9}),
	} {
		seeds = append(seeds, EncodeMap(m))
	}
	bumped := NewMap([]int{0, 1, 3})
	bumped.Version = 9
	seeds = append(seeds, EncodeMap(bumped))
	badFlag := EncodeMap(bumped)
	badFlag[len(badFlag)-5] = 2 // an unknown move flag under a valid CRC
	sum := crc32.ChecksumIEEE(badFlag[:len(badFlag)-4])
	copy(badFlag[len(badFlag)-4:], []byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
	seeds = append(seeds, badFlag)

	whole := seeds[1]
	seeds = append(seeds, whole[:len(whole)/2]) // truncated mid-body
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x10 // CRC must catch this
	seeds = append(seeds, flipped, []byte("SMAP1"), []byte("SMAP1\x02\x01\x00"))
	return seeds
}

// mergeSeeds builds seed inputs for FuzzMergeReplies: a wire-encoded
// query followed by wire-encoded per-shard results, the exact bytes a
// compromised or corrupted shard could hand the scatter merge.
func mergeSeeds() [][]byte {
	queries := []minidb.Query{
		{Table: schema.TableHLE},
		{Table: schema.TableHLE, Count: true},
		{Table: schema.TableHLE,
			Where:   []minidb.Pred{{Col: "owner", Op: minidb.OpEq, Val: minidb.S("user0")}},
			OrderBy: []minidb.Order{{Col: "tstart", Desc: true}},
			Limit:   5, Offset: 1, Project: []string{"hle_id", "tstart"}},
	}
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		panic(err)
	}
	defer db.Close()
	for i := 0; i < 12; i++ {
		h := schema.HLE{ID: fmt.Sprintf("hle-%03d", i), Owner: fmt.Sprintf("user%d", i%2),
			TStart: float64(i), Origin: "auto"}
		if _, err := db.Insert(schema.TableHLE, h.ToRow()); err != nil {
			panic(err)
		}
	}
	var seeds [][]byte
	for _, q := range queries {
		var b bytes.Buffer
		minidb.WirePutUvarint(&b, 2) // reply count
		minidb.WirePutQuery(&b, q)
		sub := q
		sub.Project = nil
		sub.Offset = 0
		for range [2]int{} {
			res, err := db.Query(sub)
			if err != nil {
				panic(err)
			}
			minidb.WirePutResult(&b, res)
		}
		seeds = append(seeds, b.Bytes())
	}
	whole := seeds[0]
	seeds = append(seeds, whole[:len(whole)*2/3]) // truncated reply
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x08
	seeds = append(seeds, flipped)
	return seeds
}

// TestGenerateFuzzCorpus materializes the seeds as checked-in corpus
// files (go test fuzz v1 format). Existing files are left alone, so the
// corpus is stable once committed and self-heals if a file goes missing.
func TestGenerateFuzzCorpus(t *testing.T) {
	for dirName, seeds := range map[string][][]byte{
		"FuzzDecodeShardMap": mapSeeds(),
		"FuzzMergeReplies":   mergeSeeds(),
	} {
		dir := filepath.Join("testdata", "fuzz", dirName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if _, err := os.Stat(path); err == nil {
				continue
			}
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzDecodeShardMap feeds arbitrary bytes to the shard-map decoder —
// what a torn write or hostile file could leave at SHARDMAP. The
// invariant: never panics, anything accepted passes Validate and
// round-trips through encode/decode to the same map (a semantic fixed
// point).
func FuzzDecodeShardMap(f *testing.F) {
	for _, seed := range mapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMap(data)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid map: %v", err)
		}
		re := EncodeMap(m)
		m2, err := DecodeMap(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted map rejected: %v", err)
		}
		if !bytes.Equal(EncodeMap(m2), re) {
			t.Fatal("re-encoding is not a fixed point")
		}
		// Routing off an accepted map must hold its invariants.
		for slot := 0; slot < NumSlots; slot++ {
			owner := m.ReadOwner(slot)
			if !m.hasShard(owner) {
				t.Fatalf("slot %d routed to unknown shard %d", slot, owner)
			}
		}
	})
}

// FuzzMergeReplies drives the scatter-gather merge with arbitrary
// per-shard replies: a decoded query plus N decoded results, exactly
// what a corrupted shard response would inject. The merge must error,
// never panic, whatever widths, row counts or values the replies claim.
func FuzzMergeReplies(f *testing.F) {
	for _, seed := range mergeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		nReplies, err := minidb.WireUvarint(rd)
		if err != nil || nReplies == 0 || nReplies > 16 {
			return
		}
		q, err := minidb.WireQuery(rd)
		if err != nil {
			return
		}
		replies := make([]shardReply, 0, nReplies)
		for i := 0; i < int(nReplies); i++ {
			res, err := minidb.WireResult(rd)
			if err != nil {
				break
			}
			replies = append(replies, shardReply{shard: i, res: res})
		}
		if len(replies) == 0 {
			return
		}
		r := sharedFuzzRouter(t)
		tc, err := r.cols(q.Table)
		if err != nil {
			return // unknown table: routing would have rejected q upstream
		}
		res, err := r.mergeReplies(r.Map(), q, tc, replies)
		if err != nil {
			return
		}
		// A merge that succeeds must be internally consistent.
		if len(res.Rows) != len(res.RowIDs) {
			t.Fatalf("merged %d rows with %d rowids", len(res.Rows), len(res.RowIDs))
		}
		if q.Limit > 0 && len(res.Rows) > q.Limit {
			t.Fatalf("merge ignored limit %d: %d rows", q.Limit, len(res.Rows))
		}
	})
}

// sharedFuzzRouter builds one 16-shard in-memory router reused across
// fuzz iterations (mergeReplies only reads router state, and a fresh
// router per exec would throttle the fuzzer to a crawl).
var (
	fuzzRouterOnce sync.Once
	fuzzRouter     *Router
	fuzzRouterErr  error
)

func sharedFuzzRouter(t *testing.T) *Router {
	fuzzRouterOnce.Do(func() {
		shards := make(map[int]minidb.Engine, 16)
		for i := 0; i < 16; i++ {
			db, err := minidb.Open("", schema.AllSchemas()...)
			if err != nil {
				fuzzRouterErr = err
				return
			}
			shards[i] = db
		}
		fuzzRouter, fuzzRouterErr = NewRouter(Options{Shards: shards})
	})
	if fuzzRouterErr != nil {
		t.Fatal(fuzzRouterErr)
	}
	return fuzzRouter
}
