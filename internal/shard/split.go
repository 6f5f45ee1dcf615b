package shard

import (
	"fmt"
	"sort"

	"repro/internal/minidb"
)

// Online shard split: move a set of slots from one shard to another with
// no downtime. The protocol is four persisted steps, each an atomic map
// swap (tmp+sync+rename), so a crash between any two steps recovers by
// rolling forward:
//
//  1. dual-write  — map v+1 carries Move{From,To,Slots,dual-write}.
//     Writes to moving slots land on both shards; reads still come from
//     From, and To's partial copies are invisible.
//  2. backfill    — every From row in a moving slot is copied to To,
//     insert-if-absent (any row already on To came from a fresher
//     dual-write mirror). An in-memory tombstone set catches the
//     copy-vs-concurrent-delete race.
//  3. cutover     — map v+2 re-homes the slots to To (phase cutover).
//     Reads now route to To; From's leftover copies are filtered by the
//     scatter path until cleanup.
//  4. cleanup     — From's leftover rows are deleted, then map v+3 drops
//     the Move: stable again.
//
// The split is driven by one router. HEDC cells run the shard map as
// static configuration for normal operation; a rebalance is an
// administrative action against a single router (peers reload the
// persisted map on restart — live multi-router map propagation is future
// work, noted in DESIGN.md).

// Split is an in-flight split with explicit phase control, so tests can
// interleave workload between phases: BeginSplit, then Backfill, Cutover
// and Cleanup in that order.
type Split struct {
	r     *Router
	from  int
	to    int
	slots []int
}

// BeginSplit installs the dual-write window for moving slots from one
// shard to another. The destination must already be registered
// (AddShard) and the slots must all be owned by from.
func (r *Router) BeginSplit(from, to int, slots []int) (*Split, error) {
	ss := append([]int(nil), slots...)
	sort.Ints(ss)
	r.mu.RLock()
	m := r.smap
	okFrom := r.nodes[from] != nil
	okTo := r.nodes[to] != nil
	r.mu.RUnlock()
	if m.Move != nil {
		return nil, fmt.Errorf("shard: split already in flight (%d->%d)", m.Move.From, m.Move.To)
	}
	if !okFrom || !okTo || from == to {
		return nil, fmt.Errorf("shard: bad split %d->%d", from, to)
	}
	if len(ss) == 0 {
		return nil, fmt.Errorf("shard: split with no slots")
	}
	for i, s := range ss {
		if s < 0 || s >= NumSlots {
			return nil, fmt.Errorf("shard: split slot %d out of range", s)
		}
		if i > 0 && ss[i-1] == s {
			return nil, fmt.Errorf("shard: duplicate split slot %d", s)
		}
		if m.Slots[s] != from {
			return nil, fmt.Errorf("shard: slot %d owned by %d, not %d", s, m.Slots[s], from)
		}
	}
	next := m.Clone()
	next.Version++
	if !next.hasShard(to) {
		next.Shards = append(next.Shards, to)
		sort.Ints(next.Shards)
	}
	next.Move = &Move{From: from, To: to, Slots: ss, Phase: PhaseDualWrite}
	r.mu.Lock()
	r.moveDeleted = make(map[string]bool)
	r.mu.Unlock()
	if err := r.install(next); err != nil {
		return nil, err
	}
	r.logf("shard: split %d->%d dual-write installed (v%d, %d slots)",
		from, to, next.Version, len(ss))
	return &Split{r: r, from: from, to: to, slots: ss}, nil
}

// movingSet returns the slots as a lookup set.
func (s *Split) movingSet() map[int]bool {
	set := make(map[int]bool, len(s.slots))
	for _, sl := range s.slots {
		set[sl] = true
	}
	return set
}

// Backfill copies every From row in a moving slot onto To. It runs
// online, concurrent with dual-written traffic: copies are
// insert-if-absent (a row already on To is a fresher mirror), an insert
// that loses a unique-key race is re-checked, and the router's
// dual-write tombstones prevent resurrecting a row deleted mid-copy.
func (s *Split) Backfill() error {
	r := s.r
	from := r.nodeFor(s.from)
	to := r.nodeFor(s.to)
	if from == nil || to == nil {
		return fmt.Errorf("shard: split shards unregistered")
	}
	moving := s.movingSet()
	for _, table := range shardedTables(r) {
		tc, err := r.cols(table)
		if err != nil {
			return err
		}
		if tc.pkIdx < 0 {
			return fmt.Errorf("shard: sharded table %s has no primary key", table)
		}
		res, err := callShard(r, from, func(e minidb.Engine) (*minidb.Result, error) {
			return e.Query(minidb.Query{Table: table})
		})
		if err != nil {
			return err
		}
		copied := 0
		for _, row := range res.Rows {
			if !moving[SlotOf(row[tc.keyIdx])] {
				continue
			}
			pk := row[tc.pkIdx]
			if r.wasMoveDeleted(table, pk) {
				continue
			}
			exists, err := callShard(r, to, func(e minidb.Engine) (*minidb.Result, error) {
				return e.Query(minidb.Query{Table: table, Count: true,
					Where: []minidb.Pred{{Col: tc.pkCol, Op: minidb.OpEq, Val: pk}}})
			})
			if err != nil {
				return err
			}
			if exists.Count > 0 {
				continue // dual-write mirror got there first (fresher)
			}
			if _, err := callShard(r, to, func(e minidb.Engine) (int64, error) {
				return e.Insert(table, row)
			}); err != nil {
				if isShardFailure(err) {
					return err
				}
				// Lost a unique-key race with a concurrent mirror: the
				// mirror's copy is fresher; keep it.
				continue
			}
			copied++
			// A delete may have raced the copy: its tombstone was
			// recorded before the delete executed, so re-checking after
			// our insert catches every interleaving.
			if r.wasMoveDeleted(table, pk) {
				if err := r.deleteByPK(to, table, pk); err != nil {
					return err
				}
				copied--
			}
		}
		r.logf("shard: backfill %s: %d rows -> shard %d", table, copied, s.to)
	}
	return nil
}

// Cutover re-homes the moving slots to the destination: reads route to
// To from here on, with From's leftovers filtered until Cleanup.
func (s *Split) Cutover() error {
	r := s.r
	m := r.Map()
	if m.Move == nil || m.Move.From != s.from || m.Move.To != s.to {
		return fmt.Errorf("shard: cutover without matching dual-write window")
	}
	next := m.Clone()
	next.Version++
	for _, sl := range s.slots {
		next.Slots[sl] = s.to
	}
	next.Move.Phase = PhaseCutover
	if err := r.install(next); err != nil {
		return err
	}
	r.logf("shard: split %d->%d cutover installed (v%d)", s.from, s.to, next.Version)
	return nil
}

// Cleanup deletes the source shard's leftover copies of the moved slots
// and drops the Move: the map is stable again.
func (s *Split) Cleanup() error {
	r := s.r
	from := r.nodeFor(s.from)
	if from == nil {
		return fmt.Errorf("shard: split source unregistered")
	}
	moving := s.movingSet()
	for _, table := range shardedTables(r) {
		tc, err := r.cols(table)
		if err != nil {
			return err
		}
		res, err := callShard(r, from, func(e minidb.Engine) (*minidb.Result, error) {
			return e.Query(minidb.Query{Table: table})
		})
		if err != nil {
			return err
		}
		removed := 0
		for i, row := range res.Rows {
			if !moving[SlotOf(row[tc.keyIdx])] {
				continue
			}
			id := res.RowIDs[i]
			if _, err := callShard(r, from, func(e minidb.Engine) (struct{}, error) {
				return struct{}{}, e.Delete(table, id)
			}); err != nil {
				return err
			}
			removed++
		}
		if removed > 0 {
			r.logf("shard: cleanup %s: %d leftover rows off shard %d", table, removed, s.from)
		}
	}
	m := r.Map()
	if m.Move == nil {
		return fmt.Errorf("shard: cleanup without a move in flight")
	}
	next := m.Clone()
	next.Version++
	next.Move = nil
	if err := r.install(next); err != nil {
		return err
	}
	r.mu.Lock()
	r.moveDeleted = make(map[string]bool)
	r.mu.Unlock()
	r.stats.splits.Add(1)
	r.logf("shard: split %d->%d complete (v%d)", s.from, s.to, next.Version)
	return nil
}

// shardedTables lists the sharded tables that actually exist in the
// cell's schema (the policy map may name tables a deployment lacks).
func shardedTables(r *Router) []string {
	var out []string
	for table := range keyColumns {
		if r.Schema(table) != nil {
			out = append(out, table)
		}
	}
	sort.Strings(out)
	return out
}

// recoverSplit rolls an interrupted split forward after reopen. There is
// no concurrent traffic during recovery, so the dual-write phase can
// rebuild To's copy of the moving slots authoritatively from From
// (wipe + recopy: an acked-then-crashed update may have reached From
// only, and insert-if-absent would preserve To's stale mirror), then
// cut over and clean up through the normal persisted steps.
func (r *Router) recoverSplit() error {
	m := r.Map()
	mv := m.Move
	if mv == nil {
		return nil
	}
	s := &Split{r: r, from: mv.From, to: mv.To, slots: append([]int(nil), mv.Slots...)}
	if mv.Phase == PhaseDualWrite {
		to := r.nodeFor(s.to)
		if to == nil {
			return fmt.Errorf("shard: recovery needs shard %d registered", s.to)
		}
		moving := s.movingSet()
		for _, table := range shardedTables(r) {
			tc, err := r.cols(table)
			if err != nil {
				return err
			}
			res, err := callShard(r, to, func(e minidb.Engine) (*minidb.Result, error) {
				return e.Query(minidb.Query{Table: table})
			})
			if err != nil {
				return err
			}
			for i, row := range res.Rows {
				if !moving[SlotOf(row[tc.keyIdx])] {
					continue
				}
				id := res.RowIDs[i]
				if _, err := callShard(r, to, func(e minidb.Engine) (struct{}, error) {
					return struct{}{}, e.Delete(table, id)
				}); err != nil {
					return err
				}
			}
		}
		if err := s.Backfill(); err != nil {
			return err
		}
		if err := s.Cutover(); err != nil {
			return err
		}
	}
	return s.Cleanup()
}
