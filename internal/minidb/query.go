package minidb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Op enumerates predicate operators.
type Op uint8

// Predicate operators. OpBetween is inclusive on both ends; OpPrefix applies
// to strings only.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpBetween
	OpPrefix
)

// String returns the operator spelling used in diagnostics.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpBetween:
		return "between"
	case OpPrefix:
		return "prefix"
	}
	return "?"
}

// Pred is one conjunct of a query's WHERE clause.
type Pred struct {
	Col string
	Op  Op
	Val Value
	Hi  Value // upper bound for OpBetween
}

// Match reports whether value v satisfies the predicate.
func (p Pred) Match(v Value) bool {
	switch p.Op {
	case OpEq:
		return Compare(v, p.Val) == 0
	case OpNe:
		return Compare(v, p.Val) != 0
	case OpLt:
		return Compare(v, p.Val) < 0
	case OpLe:
		return Compare(v, p.Val) <= 0
	case OpGt:
		return Compare(v, p.Val) > 0
	case OpGe:
		return Compare(v, p.Val) >= 0
	case OpBetween:
		return Compare(v, p.Val) >= 0 && Compare(v, p.Hi) <= 0
	case OpPrefix:
		return v.T == StringType && strings.HasPrefix(v.S, p.Val.Str())
	}
	return false
}

// Order is one ORDER BY term.
type Order struct {
	Col  string
	Desc bool
}

// Query is a structured query: conjunctive predicates, ordering, paging and
// projection over one table. This is the "collection objects instead of SQL"
// API of the DM (§5.4): the engine parses, verifies and plans it without any
// SQL text, so schema changes never ripple into callers.
type Query struct {
	Table string
	Where []Pred
	// Or is an optional disjunctive group ANDed with Where: a row matches
	// when it satisfies every Where predicate and at least one Or
	// predicate. HEDC's access control appends exactly this shape —
	// "public = true OR owner = <user>" — to queries over the domain
	// tables (§5.5).
	Or      []Pred
	OrderBy []Order
	Offset  int
	Limit   int // 0 means unlimited
	Project []string
	Count   bool // return only the number of matching rows
}

// PlanKind classifies how a query was executed.
type PlanKind uint8

// Plan kinds, from cheapest to most expensive. PlanFullIndexScan is an index
// scan with an open-ended bound (the paper's "full index scan", §7.2);
// PlanFullScan reads the heap.
const (
	PlanIndexEq PlanKind = iota
	PlanIndexRange
	PlanFullIndexScan
	PlanFullScan
)

// String names the plan kind.
func (k PlanKind) String() string {
	switch k {
	case PlanIndexEq:
		return "index-eq"
	case PlanIndexRange:
		return "index-range"
	case PlanFullIndexScan:
		return "full-index-scan"
	case PlanFullScan:
		return "full-scan"
	}
	return "?"
}

// PlanInfo describes the executed plan for observability and tests.
type PlanInfo struct {
	Kind        PlanKind
	Index       string // column whose index drove the scan ("" for full scan)
	RowsScanned int    // index entries or heap rows the scan visited (planner probes excluded)
}

// Result carries query output. For Count queries only Count is set.
type Result struct {
	Cols   []string
	Rows   []Row
	RowIDs []int64
	Count  int
	Plan   PlanInfo
}

// execQuery plans and runs q against view v of table t. The view is
// immutable (a published snapshot) or exclusively owned (a transaction's
// working copy), so execution takes no locks.
func execQuery(t *Table, v *tableView, q Query) (*Result, error) {
	res := &Result{}
	colIdx := t.colIdx // built once at open; schemas are fixed at runtime
	for _, p := range q.Where {
		if _, ok := colIdx[p.Col]; !ok {
			return nil, fmt.Errorf("minidb: table %s has no column %s", t.schema.Name, p.Col)
		}
	}
	for _, p := range q.Or {
		if _, ok := colIdx[p.Col]; !ok {
			return nil, fmt.Errorf("minidb: table %s has no or-column %s", t.schema.Name, p.Col)
		}
	}
	for _, o := range q.OrderBy {
		if _, ok := colIdx[o.Col]; !ok {
			return nil, fmt.Errorf("minidb: table %s has no order column %s", t.schema.Name, o.Col)
		}
	}

	driver, kind, span := choosePlan(v, q)
	want := q.Offset + q.Limit

	var matched []int64
	var matchedRows []Row
	walked := false
	if budget, ok := walkBudget(v, q, driver, span); ok {
		matched, matchedRows, walked = walkOrder(v, q, colIdx, want, budget, &res.Plan)
	}
	if walked {
		res.Plan.Kind, res.Plan.Index = PlanFullIndexScan, q.OrderBy[0].Col
	} else {
		// The chosen plan, from scratch: a walk that ran out of budget
		// leaves only its visits in RowsScanned.
		res.Plan.Kind = kind
		if driver >= 0 {
			res.Plan.Index = q.Where[driver].Col
		}
		count, ids, rows := scanPlan(v, q, colIdx, driver, want, &res.Plan)
		if q.Count {
			res.Count = count
			return res, nil
		}
		matched, matchedRows = ids, rows
	}

	// Paging.
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			matched, matchedRows = nil, nil
		} else {
			matched, matchedRows = matched[q.Offset:], matchedRows[q.Offset:]
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched, matchedRows = matched[:q.Limit], matchedRows[:q.Limit]
	}

	// Projection: one flat cell buffer backs every output row.
	proj := q.Project
	if len(proj) == 0 {
		proj = make([]string, len(t.schema.Columns))
		for i, c := range t.schema.Columns {
			proj[i] = c.Name
		}
	}
	pidx := make([]int, len(proj))
	for i, name := range proj {
		ci, ok := colIdx[name]
		if !ok {
			return nil, fmt.Errorf("minidb: table %s has no projected column %s", t.schema.Name, name)
		}
		pidx[i] = ci
	}
	res.Cols = proj
	res.RowIDs = matched
	res.Rows = make([]Row, len(matched))
	np := len(pidx)
	cells := make([]Value, len(matched)*np)
	for i, src := range matchedRows {
		out := cells[i*np : (i+1)*np : (i+1)*np]
		for j, ci := range pidx {
			out[j] = src[ci]
		}
		res.Rows[i] = out
	}
	res.Count = len(matched)
	return res, nil
}

// scanPlan runs the plan choosePlan picked: a scan of the driving index's
// range (driver >= 0) or of the heap, the other predicates checked per row.
// It returns the match count of a Count query; otherwise the matches in
// result order, at least the first want of them (all of them when q has no
// LIMIT). Visits add to plan.RowsScanned.
func scanPlan(v *tableView, q Query, colIdx map[string]int, driver, want int, plan *PlanInfo) (int, []int64, []Row) {
	// orderedByIndex: single ORDER BY term on the driving index column. Under
	// an equality driver that term is constant, so the scan stays ascending:
	// rowid order within the key is the (term, rowid) order either way, and
	// which equality the planner picks never shows in the result.
	orderedByIndex := false
	desc := false
	if driver >= 0 && len(q.OrderBy) == 1 && q.OrderBy[0].Col == q.Where[driver].Col {
		orderedByIndex = true
		desc = q.OrderBy[0].Desc && q.Where[driver].Op != OpEq
	}
	if driver >= 0 && len(q.OrderBy) == 0 {
		orderedByIndex = true // index order is as good as any
	}

	// canStopEarly: results already ordered, so offset+limit bounds the scan.
	canStopEarly := orderedByIndex && q.Limit > 0 && !q.Count
	// Otherwise ORDER BY sorts the matches. Under a LIMIT only the first
	// offset+limit of them can be returned, so the scan keeps just those.
	sorted := len(q.OrderBy) > 0 && !orderedByIndex
	topK := sorted && q.Limit > 0 && !q.Count
	matches := residual(q, colIdx, driver)

	// Count queries never materialize the match set: one integer suffices.
	// Other matches are fetched once during the scan into m and reused
	// below, so the comparator touches no storage.
	count := 0
	m := &rowSorter{}
	if sorted {
		m.less = orderLess(colIdx, q.OrderBy)
	}
	collect := func(rowid int64, r Row) bool {
		if !matches(r) {
			return true
		}
		if q.Count {
			count++
			return true
		}
		if topK {
			m.offer(want, rowid, r)
			return true
		}
		m.ids = append(m.ids, rowid)
		m.rows = append(m.rows, r)
		// A descending scan stops only between runs of equal keys (tieRun).
		return !(canStopEarly && !desc && len(m.ids) >= want)
	}

	switch {
	case driver >= 0:
		p := q.Where[driver]
		idx := v.indexes[p.Col]
		lo, hi := indexBounds(p)
		var ties tieRun
		visit := func(e entry) bool {
			plan.RowsScanned++
			if desc && ties.next(e.key, m) && canStopEarly && len(m.ids) >= want {
				return false
			}
			r := v.get(e.rowid)
			if r == nil {
				return true
			}
			// Residual check for operators the bounds only approximate.
			if p.Op == OpPrefix && !p.Match(e.key) {
				return false // past the prefix region: stop
			}
			if (p.Op == OpGt || p.Op == OpLt) && !p.Match(e.key) {
				return true // boundary entry excluded by the strict operator
			}
			return collect(e.rowid, r)
		}
		if desc {
			idx.tree.scanDesc(lo, hi, visit)
			m.flip(ties.start)
		} else {
			idx.tree.scanRange(lo, hi, visit)
		}
	default:
		v.scanAll(func(rowid int64, r Row) bool {
			plan.RowsScanned++
			return collect(rowid, r)
		})
	}

	// Sort when the index order does not already satisfy ORDER BY; a top-k
	// scan sorts its heap with the same comparator.
	if sorted {
		sort.Sort(m)
	}
	return count, m.ids, m.rows
}

// residual returns the row filter for every Where predicate but the one at
// skip (the driver, whose index bounds already hold; -1 checks them all),
// ANDed with the Or group.
func residual(q Query, colIdx map[string]int, skip int) func(Row) bool {
	return func(r Row) bool {
		for i, p := range q.Where {
			if i == skip {
				continue
			}
			if !p.Match(r[colIdx[p.Col]]) {
				return false
			}
		}
		if len(q.Or) == 0 {
			return true
		}
		for _, p := range q.Or {
			if p.Match(r[colIdx[p.Col]]) {
				return true
			}
		}
		return false
	}
}

// tieRun restores orderLess's tie rule under a descending index scan. The
// index orders entries by (key, rowid), so a descending scan yields each
// run of equal keys by descending rowid, while orderLess ranks ties by
// ascending rowid. tieRun remembers where the current run's matches start
// and flips them once the scan leaves the run.
type tieRun struct {
	start int   // position in the match slices where the run begins
	key   Value // the run's key
}

// next moves the run to the key of the entry about to be visited. It
// reports whether that entry starts a new run: the only point at which a
// descending scan may stop, since every match of the finished run is then
// held and in order.
func (t *tieRun) next(key Value, m *rowSorter) bool {
	if Compare(key, t.key) == 0 {
		return false
	}
	m.flip(t.start)
	t.start, t.key = len(m.ids), key
	return true
}

// orderLess is the total order an ORDER BY defines: its terms in turn, then
// rowid, so rows with equal keys still come out in one deterministic order.
func orderLess(colIdx map[string]int, order []Order) func(ida int64, ra Row, idb int64, rb Row) bool {
	ords := make([]int, len(order))
	for i, o := range order {
		ords[i] = colIdx[o.Col]
	}
	return func(ida int64, ra Row, idb int64, rb Row) bool {
		for i, ci := range ords {
			c := Compare(ra[ci], rb[ci])
			if order[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return ida < idb
	}
}

// rowSorter holds parallel (rowid, row) slices under one comparator. It is
// the sort.Interface of the final sort and, through offer, the bounded
// max-heap a top-k scan keeps: one order for both, so a LIMIT query returns
// exactly the prefix of the fully sorted result.
type rowSorter struct {
	ids  []int64
	rows []Row
	less func(ida int64, ra Row, idb int64, rb Row) bool
}

func (s *rowSorter) Len() int { return len(s.ids) }
func (s *rowSorter) Less(a, b int) bool {
	return s.less(s.ids[a], s.rows[a], s.ids[b], s.rows[b])
}
func (s *rowSorter) Swap(a, b int) {
	s.ids[a], s.ids[b] = s.ids[b], s.ids[a]
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
}

// flip reverses the pairs from position from on.
func (s *rowSorter) flip(from int) {
	for i, j := from, len(s.ids)-1; i < j; i, j = i+1, j-1 {
		s.Swap(i, j)
	}
}

// offer keeps the k least pairs offered so far as a max-heap: the greatest
// kept pair sits at index 0, and a newcomer not less than it is dropped.
func (s *rowSorter) offer(k int, id int64, r Row) {
	if len(s.ids) < k {
		s.ids = append(s.ids, id)
		s.rows = append(s.rows, r)
		for i := len(s.ids) - 1; i > 0; {
			parent := (i - 1) / 2
			if !s.Less(parent, i) {
				break
			}
			s.Swap(parent, i)
			i = parent
		}
		return
	}
	if !s.less(id, r, s.ids[0], s.rows[0]) {
		return
	}
	s.ids[0], s.rows[0] = id, r
	for i := 0; ; {
		top := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(s.ids) && s.Less(top, c) {
				top = c
			}
		}
		if top == i {
			return
		}
		s.Swap(i, top)
		i = top
	}
}

// probeCap bounds the index entries one planner probe visits.
const probeCap = 64

// choosePlan picks the predicate whose index drives the scan. It returns the
// predicate position (or -1), the plan classification, and the entries a
// planner probe found in the driving range (-1 when none ran; a count of
// probeCap means at least that many). Operators rank unique equality, then
// equality, then a closed range, then an open bound. A tie between
// non-unique equalities goes to the narrowest index range (narrowestEq);
// any other tie to the first predicate.
func choosePlan(v *tableView, q Query) (int, PlanKind, int) {
	best, bestScore, ties := -1, 0, 0
	for i, p := range q.Where {
		idx, ok := v.indexes[p.Col]
		if !ok {
			continue
		}
		var score int
		switch p.Op {
		case OpEq:
			score = 4
			if idx.unique {
				score = 5
			}
		case OpBetween, OpPrefix:
			score = 3
		case OpLt, OpLe, OpGt, OpGe:
			score = 2
		default:
			continue // OpNe cannot use an index
		}
		switch {
		case score > bestScore:
			best, bestScore, ties = i, score, 1
		case score == bestScore:
			ties++
		}
	}
	if best < 0 {
		return -1, PlanFullScan, -1
	}
	span := -1
	if bestScore == 4 && ties > 1 {
		best, span = narrowestEq(v, q, best)
	}
	switch q.Where[best].Op {
	case OpEq:
		return best, PlanIndexEq, span
	case OpBetween, OpPrefix:
		return best, PlanIndexRange, span
	default:
		return best, PlanFullIndexScan, span // open-ended bound: §7.2's "full index scan"
	}
}

// narrowestEq probes the index range of each non-unique equality from first
// on and returns the one holding the fewest entries, with its count. A probe
// stops at min(probeCap, smallest count so far), so it costs at most
// probeCap entries and only a strictly smaller range displaces the current
// choice: when every probe reaches the cap, first stands with a count of
// probeCap.
func narrowestEq(v *tableView, q Query, first int) (int, int) {
	best, bound := first, probeCap
	for i := first; i < len(q.Where) && bound > 0; i++ {
		p := q.Where[i]
		idx, ok := v.indexes[p.Col]
		if !ok || p.Op != OpEq || idx.unique {
			continue
		}
		if n := rangeCount(idx, p, bound); n < bound {
			best, bound = i, n
		}
	}
	return best, bound
}

// rangeCount counts the entries in p's index range, stopping at limit.
func rangeCount(idx *tableIndex, p Pred, limit int) int {
	lo, hi := indexBounds(p)
	n := 0
	idx.tree.scanRange(lo, hi, func(e entry) bool {
		if p.Op == OpPrefix && !p.Match(e.key) {
			return false // past the prefix region
		}
		n++
		return n < limit
	})
	return n
}

// Ordered walk. ORDER BY one indexed column under a LIMIT can walk that
// column's index in ORDER BY order, check every Where predicate and the Or
// group against each row, and stop at the offset+limit-th match, instead of
// scanning all matches and keeping a top-k. Ties come out by ascending
// rowid, as orderLess ranks them: an ascending walk yields that order, and a
// descending one flips each run of equal keys (tieRun). The walk reports
// PlanFullIndexScan on the order column.

// walkBudget decides whether q walks its ORDER BY column's index, and with
// what visit budget. The walk needs a single indexed ORDER BY term, a
// LIMIT, no Count, and a driver (if any) that does not already give the
// order.
//
// With no driving predicate the walk replaces a heap scan of the N live
// rows. The index holds one entry per live row, so the budget is N: the
// walk never runs out and visits no more than that scan.
//
// With a driver of D entries, matches spread over the order turn up about
// every N/D entries, so the walk expects want·N/D visits. That beats the
// driver's D visits when D exceeds T = ⌈√(want·N)⌉. A probe counts the
// driving range up to T entries, or reuses narrowestEq's count when that is
// exact; a range below T drives as before. The walk's budget is T. When a
// filter's matches sit at the far end of the order the budget runs out and
// the driven plan runs from scratch, so the query visits at most T + D ≤ 2D
// entries (rows fetched) where the driven plan alone visits D, plus the
// probe's T index keys.
func walkBudget(v *tableView, q Query, driver, span int) (int, bool) {
	if len(q.OrderBy) != 1 || q.Limit <= 0 || q.Count {
		return 0, false
	}
	col := q.OrderBy[0].Col
	if _, ok := v.indexes[col]; !ok {
		return 0, false
	}
	if driver < 0 {
		return v.live, true
	}
	p := q.Where[driver]
	if p.Col == col {
		return 0, false // the driving scan already yields the order
	}
	t := int(math.Ceil(math.Sqrt(float64(q.Offset+q.Limit) * float64(v.live))))
	// narrowestEq's count is exact below probeCap and a lower bound at it.
	if span < 0 || (span == probeCap && span < t) {
		span = rangeCount(v.indexes[p.Col], p, t)
	}
	return t, span >= t
}

// walkOrder walks q's ORDER BY column's index for the first want matches,
// visiting at most budget entries; visits add to plan.RowsScanned. It
// reports false, with partial matches, when the budget ran out first.
func walkOrder(v *tableView, q Query, colIdx map[string]int, want, budget int, plan *PlanInfo) ([]int64, []Row, bool) {
	o := q.OrderBy[0]
	matches := residual(q, colIdx, -1)
	m := &rowSorter{}
	var ties tieRun
	visits, spent := 0, false
	visit := func(e entry) bool {
		if visits == budget {
			spent = true
			return false
		}
		visits++
		if o.Desc && ties.next(e.key, m) && len(m.ids) >= want {
			return false
		}
		r := v.get(e.rowid)
		if r == nil || !matches(r) {
			return true
		}
		m.ids = append(m.ids, e.rowid)
		m.rows = append(m.rows, r)
		return o.Desc || len(m.ids) < want
	}
	tree := v.indexes[o.Col].tree
	if o.Desc {
		tree.scanDesc(nil, nil, visit)
		m.flip(ties.start)
	} else {
		tree.scanRange(nil, nil, visit)
	}
	plan.RowsScanned += visits
	return m.ids, m.rows, !spent
}

// indexBounds translates a sargable predicate into inclusive scan bounds.
func indexBounds(p Pred) (lo, hi *Value) {
	switch p.Op {
	case OpEq:
		v := p.Val
		return &v, &v
	case OpBetween:
		lo, hi := p.Val, p.Hi
		return &lo, &hi
	case OpGe, OpGt:
		v := p.Val
		return &v, nil // OpGt over-approximates; residual Match filters
	case OpLe, OpLt:
		v := p.Val
		return nil, &v
	case OpPrefix:
		v := p.Val
		return &v, nil // scan stops at first non-prefix key
	}
	return nil, nil
}
