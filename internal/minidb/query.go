package minidb

import (
	"fmt"
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

	driver, kind := choosePlan(v, q)
	res.Plan.Kind = kind
	if driver >= 0 {
		res.Plan.Index = q.Where[driver].Col
	}

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
	want := q.Offset + q.Limit
	// Otherwise ORDER BY sorts the matches. Under a LIMIT only the first
	// offset+limit of them can be returned, so the scan keeps just those.
	sorted := len(q.OrderBy) > 0 && !orderedByIndex
	topK := sorted && q.Limit > 0 && !q.Count

	// matches reports whether row r passes the residual predicates.
	matches := func(r Row) bool {
		for i, p := range q.Where {
			if i == driver {
				continue // guaranteed by scan bounds except residual checks below
			}
			if !p.Match(r[colIdx[p.Col]]) {
				return false
			}
		}
		if len(q.Or) > 0 {
			any := false
			for _, p := range q.Or {
				if p.Match(r[colIdx[p.Col]]) {
					any = true
					break
				}
			}
			if !any {
				return false
			}
		}
		return true
	}

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
		return !(canStopEarly && len(m.ids) >= want)
	}

	switch {
	case driver >= 0:
		p := q.Where[driver]
		idx := v.indexes[p.Col]
		lo, hi := indexBounds(p)
		visit := func(e entry) bool {
			res.Plan.RowsScanned++
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
		} else {
			idx.tree.scanRange(lo, hi, visit)
		}
	default:
		v.scanAll(func(rowid int64, r Row) bool {
			res.Plan.RowsScanned++
			return collect(rowid, r)
		})
	}

	if q.Count {
		res.Count = count
		return res, nil
	}

	// Sort when the index order does not already satisfy ORDER BY; a top-k
	// scan sorts its heap with the same comparator.
	if sorted {
		sort.Sort(m)
	}
	matched, matchedRows := m.ids, m.rows

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
// predicate position (or -1) and the plan classification. Operators rank
// unique equality, then equality, then a closed range, then an open bound.
// A tie between non-unique equalities goes to the narrowest index range
// (narrowestEq); any other tie to the first predicate.
func choosePlan(v *tableView, q Query) (int, PlanKind) {
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
		return -1, PlanFullScan
	}
	if bestScore == 4 && ties > 1 {
		best = narrowestEq(v, q, best)
	}
	switch q.Where[best].Op {
	case OpEq:
		return best, PlanIndexEq
	case OpBetween, OpPrefix:
		return best, PlanIndexRange
	default:
		return best, PlanFullIndexScan // open-ended bound: §7.2's "full index scan"
	}
}

// narrowestEq probes the index range of each non-unique equality from first
// on and returns the one holding the fewest entries. A probe stops at
// min(probeCap, smallest count so far), so it costs at most probeCap entries
// and only a strictly smaller range displaces the current choice: when every
// probe reaches the cap, first stands.
func narrowestEq(v *tableView, q Query, first int) int {
	best, bound := first, probeCap
	for i := first; i < len(q.Where) && bound > 0; i++ {
		p := q.Where[i]
		idx, ok := v.indexes[p.Col]
		if !ok || p.Op != OpEq || idx.unique {
			continue
		}
		n := 0
		idx.tree.scanRange(&p.Val, &p.Val, func(entry) bool {
			n++
			return n < bound
		})
		if n < bound {
			best, bound = i, n
		}
	}
	return best
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
