package shard

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/colseg"
	"repro/internal/minidb"
)

// Scatter-gather. A cross-shard query fans out to every shard in the
// read set in parallel and the replies merge into one result that is
// bit-identical to running the same query on a single unsharded engine
// (see the package ordering contract). Partial results are never served:
// any shard failure fails the whole scatter with a typed
// ShardUnavailableError, inside the propagated deadline — the caller
// (gateway, DM) already knows how to degrade from there.

// shardReply is one shard's contribution to a merge.
type shardReply struct {
	shard int
	res   *minidb.Result
	err   error
}

// prepSub builds the per-shard sub-query for a scatter. Sub-queries
// fetch full rows (projection is applied after the merge, because the
// merge needs the primary key for its tie-break and the partition key
// for ownership filtering) and keep the original predicates and
// ordering; paging is applied post-merge. The second return says the
// replies are plain counts that just sum.
func prepSub(q minidb.Query) (minidb.Query, bool) {
	sub := q
	sub.Project = nil
	sub.Offset = 0
	if q.Count {
		return sub, true
	}
	if q.Limit > 0 {
		sub.Limit = q.Offset + q.Limit
	}
	return sub, false
}

// sumCountReplies folds plain per-shard counts.
func sumCountReplies(replies []shardReply) *minidb.Result {
	out := &minidb.Result{}
	for _, rep := range replies {
		out.Count += rep.res.Count
		out.Plan.RowsScanned += rep.res.Plan.RowsScanned
	}
	return out
}

// scatterQuery fans q out to every read shard in parallel and merges.
func (r *Router) scatterQuery(m *Map, nodes map[int]*node, q minidb.Query) (*minidb.Result, error) {
	tc, err := r.cols(q.Table)
	if err != nil {
		return nil, err
	}
	shards := m.ReadShards()
	sub, sumCounts := prepSub(q)

	replies := make([]shardReply, len(shards))
	var wg sync.WaitGroup
	for i, sid := range shards {
		i, sid := i, sid
		n := nodes[sid]
		wg.Add(1)
		r.stats.fanoutCalls.Add(1)
		go func() {
			defer wg.Done()
			if n == nil {
				replies[i] = shardReply{shard: sid,
					err: fmt.Errorf("shard: map names unknown shard %d", sid)}
				return
			}
			res, err := callShard(r, n, func(e minidb.Engine) (*minidb.Result, error) {
				return e.Query(sub)
			})
			replies[i] = shardReply{shard: sid, res: res, err: err}
		}()
	}
	wg.Wait()
	for _, rep := range replies {
		if rep.err != nil {
			return nil, rep.err
		}
	}
	if sumCounts {
		return sumCountReplies(replies), nil
	}
	return r.mergeReplies(m, q, tc, replies)
}

// mergeReplies builds the merged result from per-shard full-row replies:
// ownership filter, total-order sort, paging, projection. It is shared
// by the live scatter path and the fuzz target, so a malformed reply
// must fail, never panic.
func (r *Router) mergeReplies(m *Map, q minidb.Query, tc tableCols, replies []shardReply) (*minidb.Result, error) {
	sort.Slice(replies, func(i, j int) bool { return replies[i].shard < replies[j].shard })

	sc := r.Schema(q.Table)
	if sc == nil {
		return nil, fmt.Errorf("shard: unknown table %s", q.Table)
	}
	width := len(sc.Columns)

	type mrow struct {
		shard int
		rowid int64
		row   minidb.Row
	}
	var rows []mrow
	var planScanned int
	for _, rep := range replies {
		res := rep.res
		if res == nil {
			return nil, fmt.Errorf("shard: shard %d returned no result", rep.shard)
		}
		planScanned += res.Plan.RowsScanned
		if len(res.RowIDs) != len(res.Rows) {
			return nil, fmt.Errorf("shard: shard %d reply has %d rowids for %d rows",
				rep.shard, len(res.RowIDs), len(res.Rows))
		}
		for i, row := range res.Rows {
			if len(row) != width {
				return nil, fmt.Errorf("shard: shard %d row width %d, want %d",
					rep.shard, len(row), width)
			}
			if tc.keyIdx >= 0 {
				// Ownership filter, a defensive check: a row counts
				// only on the shard that owns its slot.
				if m.ReadOwner(SlotOf(row[tc.keyIdx])) != rep.shard {
					continue
				}
			}
			rows = append(rows, mrow{shard: rep.shard, rowid: res.RowIDs[i], row: row})
		}
	}

	// Total order: the query's ORDER BY terms, then ascending primary
	// key (ties), then (shard, rowid) as a final deterministic anchor
	// for tables without a primary key.
	ordIdx := make([]int, len(q.OrderBy))
	for i, o := range q.OrderBy {
		ci := sc.ColIndex(o.Col)
		if ci < 0 {
			return nil, fmt.Errorf("shard: table %s has no order column %s", q.Table, o.Col)
		}
		ordIdx[i] = ci
	}
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for i, ci := range ordIdx {
			c := minidb.Compare(ra.row[ci], rb.row[ci])
			if q.OrderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		if tc.pkIdx >= 0 {
			if c := minidb.Compare(ra.row[tc.pkIdx], rb.row[tc.pkIdx]); c != 0 {
				return c < 0
			}
		}
		if ra.shard != rb.shard {
			return ra.shard < rb.shard
		}
		return ra.rowid < rb.rowid
	})

	if q.Count {
		out := &minidb.Result{Count: len(rows)}
		out.Plan.RowsScanned = planScanned
		return out, nil
	}

	// Paging.
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}

	// Projection, exactly as the single engine renders it.
	proj := q.Project
	if len(proj) == 0 {
		proj = make([]string, width)
		for i, c := range sc.Columns {
			proj[i] = c.Name
		}
	}
	pidx := make([]int, len(proj))
	for i, name := range proj {
		ci := sc.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("shard: table %s has no projected column %s", q.Table, name)
		}
		pidx[i] = ci
	}
	// The engine sets Count = len(rows) on row queries too; match it.
	out := &minidb.Result{Cols: proj, Count: len(rows)}
	out.Plan.RowsScanned = planScanned
	if len(rows) > 0 {
		cells := make([]minidb.Value, len(rows)*len(pidx))
		out.Rows = make([]minidb.Row, len(rows))
		out.RowIDs = make([]int64, len(rows))
		for i, mr := range rows {
			dst := cells[i*len(pidx) : (i+1)*len(pidx) : (i+1)*len(pidx)]
			for j, ci := range pidx {
				dst[j] = mr.row[ci]
			}
			out.Rows[i] = dst
			out.RowIDs[i] = TagRowid(mr.shard, mr.rowid)
		}
	}
	return out, nil
}

// --- colseg.Runner ---

// runnerFor picks the analytics path for one shard: the engine's own
// runner when it has one (a dbnet.Client ships the query to the shard's
// columnar store), else the row fallback on that engine.
func runnerFor(eng minidb.Engine, q colseg.Query) (*colseg.Result, error) {
	if rn, ok := eng.(colseg.Runner); ok {
		return rn.RunAnalytics(q)
	}
	return colseg.RunRows(eng, q)
}

// RunAnalytics fans an analytics query out to every owning shard and
// merges the partial aggregates in ascending shard order.
func (r *Router) RunAnalytics(q colseg.Query) (*colseg.Result, error) {
	m, nodes := r.snapshotRouting()
	if _, sharded := KeyColumn(q.Table); !sharded {
		n := nodes[m.Home()]
		return callShard(r, n, func(e minidb.Engine) (*colseg.Result, error) {
			return runnerFor(e, q)
		})
	}
	r.stats.anaFanout.Add(1)
	shards := m.ReadShards()
	parts := make([]*colseg.Result, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sid := range shards {
		i, n := i, nodes[sid]
		wg.Add(1)
		r.stats.fanoutCalls.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = callShard(r, n, func(e minidb.Engine) (*colseg.Result, error) {
				return runnerFor(e, q)
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeAnalytics(parts)
}

// mergeAnalytics combines per-shard partial aggregates. Counts, bins and
// extrema are order-invariant; sums fold in ascending shard order (the
// parts arrive ordered), which is bit-identical to the single-node fold
// for exactly representable inputs — the contract the property tests and
// the fig5sharded bench verify with math.Float64bits.
func mergeAnalytics(parts []*colseg.Result) (*colseg.Result, error) {
	out := &colseg.Result{}
	type gacc struct {
		g     colseg.Group
		seen  bool
		order int
	}
	groups := make(map[string]*gacc)
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("shard: missing analytics partial")
		}
		out.Rows += p.Rows
		if p.NonNull > 0 {
			if out.NonNull == 0 {
				out.Min, out.Max = p.Min, p.Max
			} else {
				if p.Min < out.Min {
					out.Min = p.Min
				}
				if p.Max > out.Max {
					out.Max = p.Max
				}
			}
		}
		out.NonNull += p.NonNull
		out.Sum += p.Sum
		if len(p.Bins) > 0 {
			if out.Bins == nil {
				out.Bins = make([]int64, len(p.Bins))
			}
			if len(p.Bins) != len(out.Bins) {
				return nil, fmt.Errorf("shard: histogram partials disagree: %d vs %d bins",
					len(p.Bins), len(out.Bins))
			}
			for i, c := range p.Bins {
				out.Bins[i] += c
			}
		}
		for _, g := range p.Groups {
			a := groups[g.Key]
			if a == nil {
				a = &gacc{order: len(groups)}
				a.g.Key = g.Key
				groups[g.Key] = a
			}
			a.g.Rows += g.Rows
			a.g.Sum += g.Sum
			a.g.NonNull += g.NonNull
		}
		out.Stats.Segments += p.Stats.Segments
		out.Stats.SegmentsPruned += p.Stats.SegmentsPruned
		out.Stats.SegRows += p.Stats.SegRows
		out.Stats.TailRows += p.Stats.TailRows
	}
	out.Stats.Vectorized = len(parts) > 0
	for _, p := range parts {
		if !p.Stats.Vectorized {
			out.Stats.Vectorized = false
		}
	}
	if len(groups) > 0 {
		out.Groups = make([]colseg.Group, 0, len(groups))
		for _, a := range groups {
			out.Groups = append(out.Groups, a.g)
		}
		sort.Slice(out.Groups, func(i, j int) bool { return out.Groups[i].Key < out.Groups[j].Key })
	}
	return out, nil
}
