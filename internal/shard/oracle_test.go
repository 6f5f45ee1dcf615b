package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/colseg"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Property test (the heart of this package's correctness story): a
// random workload applied identically to a sharded router and to one
// unsharded engine must be observationally identical — every catalog
// query, count and analytics aggregate bit-for-bit (math.Float64bits),
// for shard counts 1..8 and with a shard split running mid-workload.
//
// The generator respects the package ordering contract:
//   - primary keys are monotone and never reused, so live-row rowid
//     order equals pk order on every engine;
//   - tstart values are unique, exactly-representable dyadics (k/1024),
//     so float sums are exact under any association and ORDER BY tstart
//     is a total order;
//   - generated ORDER BY lists either start with tstart or end with the
//     primary key (total orders); paging is only generated with them;
//   - queries without ORDER BY are compared as pk-sorted sets.

type oracleRig struct {
	t      *testing.T
	r      *Router
	oracle minidb.Engine
	rng    *rand.Rand
	seq    int
	live   []string
}

var rigKinds = []string{"flare", "grb", "steady", "unknown"}
var rigOwners = []string{"user0", "user1", "user2", "user3", "user4"}

func newOracleRig(t *testing.T, shards int, seed int64) *oracleRig {
	t.Helper()
	oracle, err := minidb.Open(t.TempDir(), schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oracle.Close() })
	r, err := NewRouter(Options{Shards: openShardDBs(t, shards)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return &oracleRig{t: t, r: r, oracle: oracle, rng: rand.New(rand.NewSource(seed))}
}

// dyadic returns an exactly representable float in [0, 2^20) with a
// 1/1024 grid: sums of a few thousand of these are exact in float64.
func (g *oracleRig) dyadic() float64 {
	return float64(g.rng.Intn(1<<20)*1024+g.rng.Intn(1024)) / 1024
}

// newHLE builds the next row. tstart embeds the monotone sequence
// number, so it is unique across the run.
func (g *oracleRig) newHLE() (string, minidb.Row) {
	g.seq++
	pk := fmt.Sprintf("hle-%06d", g.seq)
	h := schema.HLE{
		ID: pk, Owner: rigOwners[g.rng.Intn(len(rigOwners))],
		Public: g.rng.Intn(3) == 0, Label: fmt.Sprintf("ev%d", g.seq),
		KindHint: rigKinds[g.rng.Intn(len(rigKinds))],
		TStart:   float64(g.seq*1024+g.rng.Intn(1024)) / 1024,
		TStop:    g.dyadic(), PeakRate: g.dyadic(),
		Significance: g.dyadic(), TotalCounts: int64(g.rng.Intn(10000)),
		Day: int64(g.seq / 10), Quality: int64(g.rng.Intn(6)), Origin: "auto",
	}
	return pk, h.ToRow()
}

func (g *oracleRig) rowidByPK(eng minidb.Engine, pk string) (int64, minidb.Row) {
	g.t.Helper()
	res, err := eng.Query(minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(pk)}}})
	if err != nil {
		g.t.Fatalf("pk lookup %s: %v", pk, err)
	}
	if len(res.RowIDs) != 1 {
		g.t.Fatalf("pk lookup %s: %d rows", pk, len(res.RowIDs))
	}
	return res.RowIDs[0], res.Rows[0]
}

func (g *oracleRig) opInsert() {
	pk, row := g.newHLE()
	if _, err := g.r.Insert(schema.TableHLE, row); err != nil {
		g.t.Fatalf("router insert %s: %v", pk, err)
	}
	if _, err := g.oracle.Insert(schema.TableHLE, append(minidb.Row(nil), row...)); err != nil {
		g.t.Fatalf("oracle insert %s: %v", pk, err)
	}
	g.live = append(g.live, pk)
}

func (g *oracleRig) pickLive() (int, string) {
	i := g.rng.Intn(len(g.live))
	return i, g.live[i]
}

func (g *oracleRig) opUpdate() {
	if len(g.live) == 0 {
		g.opInsert()
		return
	}
	_, pk := g.pickLive()
	rid, row := g.rowidByPK(g.r, pk)
	next := append(minidb.Row(nil), row...)
	sc := g.oracle.Schema(schema.TableHLE)
	next[sc.ColIndex("label")] = minidb.S(fmt.Sprintf("upd%d", g.rng.Intn(1000)))
	next[sc.ColIndex("quality")] = minidb.I(int64(g.rng.Intn(6)))
	next[sc.ColIndex("significance")] = minidb.F(g.dyadic())
	if err := g.r.Update(schema.TableHLE, rid, next); err != nil {
		g.t.Fatalf("router update %s: %v", pk, err)
	}
	orid, _ := g.rowidByPK(g.oracle, pk)
	if err := g.oracle.Update(schema.TableHLE, orid, append(minidb.Row(nil), next...)); err != nil {
		g.t.Fatalf("oracle update %s: %v", pk, err)
	}
}

func (g *oracleRig) opDelete() {
	if len(g.live) == 0 {
		g.opInsert()
		return
	}
	i, pk := g.pickLive()
	rid, _ := g.rowidByPK(g.r, pk)
	if err := g.r.Delete(schema.TableHLE, rid); err != nil {
		g.t.Fatalf("router delete %s: %v", pk, err)
	}
	orid, _ := g.rowidByPK(g.oracle, pk)
	if err := g.oracle.Delete(schema.TableHLE, orid); err != nil {
		g.t.Fatalf("oracle delete %s: %v", pk, err)
	}
	g.live = append(g.live[:i], g.live[i+1:]...)
}

// randQuery draws a catalog query. The bool says the result is ordered
// (total order) — unordered results are compared as pk-sorted sets.
func (g *oracleRig) randQuery() (minidb.Query, bool) {
	q := minidb.Query{Table: schema.TableHLE}
	switch g.rng.Intn(5) {
	case 0:
		q.Where = []minidb.Pred{{Col: "owner", Op: minidb.OpEq,
			Val: minidb.S(rigOwners[g.rng.Intn(len(rigOwners))])}}
	case 1:
		q.Where = []minidb.Pred{
			{Col: "kind_hint", Op: minidb.OpEq, Val: minidb.S(rigKinds[g.rng.Intn(len(rigKinds))])},
			{Col: "tstart", Op: minidb.OpGe, Val: minidb.F(float64(g.rng.Intn(g.seq + 1)))},
		}
	case 2:
		lo := float64(g.rng.Intn(g.seq + 1))
		q.Where = []minidb.Pred{{Col: "tstart", Op: minidb.OpBetween,
			Val: minidb.F(lo), Hi: minidb.F(lo + float64(g.rng.Intn(200)))}}
	case 3:
		q.Where = []minidb.Pred{{Col: "public", Op: minidb.OpEq, Val: minidb.Bo(true)}}
	case 4:
		q.Where = []minidb.Pred{{Col: "quality", Op: minidb.OpGe,
			Val: minidb.I(int64(g.rng.Intn(6)))}}
	}
	switch g.rng.Intn(4) {
	case 0: // unique leading column: total order, desc allowed
		q.OrderBy = []minidb.Order{{Col: "tstart", Desc: g.rng.Intn(2) == 0}}
	case 1: // non-unique column closed by the pk: total order
		q.OrderBy = []minidb.Order{{Col: "owner"}, {Col: "hle_id"}}
	case 2:
		q.OrderBy = []minidb.Order{{Col: "tstart", Desc: g.rng.Intn(2) == 0}}
		q.Limit = 1 + g.rng.Intn(20)
		if g.rng.Intn(2) == 0 {
			q.Offset = g.rng.Intn(10)
		}
	case 3: // no ORDER BY: engine-defined order, compared as a set
		return q, false
	}
	if g.rng.Intn(3) == 0 {
		q.Project = []string{"hle_id", "owner", "tstart", "quality"}
	}
	return q, true
}

func sameValue(a, b minidb.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && bytes.Equal(a.B, b.B)
}

func describeRow(r minidb.Row) string {
	var buf bytes.Buffer
	for i, v := range r {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(v.String())
	}
	return buf.String()
}

// compareResults asserts bit-identity of two query results; unordered
// results are pk-sorted on both sides first (pkIdx < 0 = ordered).
func (g *oracleRig) compareResults(tag string, got, want *minidb.Result, pkIdx int) {
	g.t.Helper()
	if len(got.Cols) != len(want.Cols) {
		g.t.Fatalf("%s: cols %v vs %v", tag, got.Cols, want.Cols)
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			g.t.Fatalf("%s: cols %v vs %v", tag, got.Cols, want.Cols)
		}
	}
	if got.Count != want.Count {
		g.t.Fatalf("%s: count %d vs %d", tag, got.Count, want.Count)
	}
	if len(got.Rows) != len(want.Rows) {
		g.t.Fatalf("%s: %d rows vs %d", tag, len(got.Rows), len(want.Rows))
	}
	gr := got.Rows
	wr := want.Rows
	if pkIdx >= 0 {
		gr = sortedByCol(gr, pkIdx)
		wr = sortedByCol(wr, pkIdx)
	}
	for i := range gr {
		if len(gr[i]) != len(wr[i]) {
			g.t.Fatalf("%s row %d: width %d vs %d", tag, i, len(gr[i]), len(wr[i]))
		}
		for j := range gr[i] {
			if !sameValue(gr[i][j], wr[i][j]) {
				g.t.Fatalf("%s row %d col %d differs:\n router: %s\n oracle: %s",
					tag, i, j, describeRow(gr[i]), describeRow(wr[i]))
			}
		}
	}
}

func sortedByCol(rows []minidb.Row, idx int) []minidb.Row {
	out := append([]minidb.Row(nil), rows...)
	for i := 1; i < len(out); i++ { // insertion sort: test-sized inputs
		for j := i; j > 0 && minidb.Compare(out[j][idx], out[j-1][idx]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (g *oracleRig) opCompareQuery() {
	g.t.Helper()
	q, ordered := g.randQuery()
	got, err := g.r.Query(q)
	if err != nil {
		g.t.Fatalf("router query %+v: %v", q, err)
	}
	want, err := g.oracle.Query(q)
	if err != nil {
		g.t.Fatalf("oracle query %+v: %v", q, err)
	}
	pkIdx := -1
	if !ordered {
		pkIdx = 0 // hle_id is column 0 and unprojected queries keep it
	}
	g.compareResults(fmt.Sprintf("query %+v", q), got, want, pkIdx)
}

func (g *oracleRig) opCompareCount() {
	g.t.Helper()
	q, _ := g.randQuery()
	q.Count = true
	q.OrderBy = nil
	q.Limit = 0
	q.Offset = 0
	q.Project = nil
	got, err := g.r.Query(q)
	if err != nil {
		g.t.Fatalf("router count %+v: %v", q, err)
	}
	want, err := g.oracle.Query(q)
	if err != nil {
		g.t.Fatalf("oracle count %+v: %v", q, err)
	}
	if got.Count != want.Count {
		g.t.Fatalf("count %+v: router %d, oracle %d", q, got.Count, want.Count)
	}
	if gl, wl := g.r.TableLen(schema.TableHLE), g.oracle.TableLen(schema.TableHLE); gl != wl {
		g.t.Fatalf("TableLen: router %d, oracle %d", gl, wl)
	}
}

func (g *oracleRig) randAnalytics() colseg.Query {
	q := colseg.Query{Table: schema.TableHLE, Agg: colseg.AggCount}
	switch g.rng.Intn(4) {
	case 0:
	case 1:
		q.Agg = colseg.AggStats
		q.Col = "tstart"
	case 2:
		q.Agg = colseg.AggStats
		q.Col = "peak_rate"
		q.GroupBy = "kind_hint"
	case 3:
		q.Agg = colseg.AggHist
		q.Col = "tstart"
		q.Bins = 8
		q.Lo, q.Hi = 0, float64(g.seq+2)
	}
	if g.rng.Intn(2) == 0 {
		q.Where = []minidb.Pred{{Col: "owner", Op: minidb.OpEq,
			Val: minidb.S(rigOwners[g.rng.Intn(len(rigOwners))])}}
	}
	return q
}

func (g *oracleRig) opCompareAnalytics() {
	g.t.Helper()
	q := g.randAnalytics()
	got, err := g.r.RunAnalytics(q)
	if err != nil {
		g.t.Fatalf("router analytics %+v: %v", q, err)
	}
	want, err := colseg.RunRows(g.oracle, q)
	if err != nil {
		g.t.Fatalf("oracle analytics %+v: %v", q, err)
	}
	tag := fmt.Sprintf("analytics %+v", q)
	if got.Rows != want.Rows || got.NonNull != want.NonNull {
		g.t.Fatalf("%s: rows %d/%d vs %d/%d", tag, got.Rows, got.NonNull, want.Rows, want.NonNull)
	}
	if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
		g.t.Fatalf("%s: sum %x vs %x (%v vs %v)", tag,
			math.Float64bits(got.Sum), math.Float64bits(want.Sum), got.Sum, want.Sum)
	}
	if want.NonNull > 0 &&
		(math.Float64bits(got.Min) != math.Float64bits(want.Min) ||
			math.Float64bits(got.Max) != math.Float64bits(want.Max)) {
		g.t.Fatalf("%s: min/max %v/%v vs %v/%v", tag, got.Min, got.Max, want.Min, want.Max)
	}
	if len(got.Bins) != len(want.Bins) {
		g.t.Fatalf("%s: %d bins vs %d", tag, len(got.Bins), len(want.Bins))
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			g.t.Fatalf("%s: bin %d: %d vs %d", tag, i, got.Bins[i], want.Bins[i])
		}
	}
	if len(got.Groups) != len(want.Groups) {
		g.t.Fatalf("%s: %d groups vs %d", tag, len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		a, b := got.Groups[i], want.Groups[i]
		if a.Key != b.Key || a.Rows != b.Rows || a.NonNull != b.NonNull ||
			math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			g.t.Fatalf("%s: group %d: %+v vs %+v", tag, i, a, b)
		}
	}
}

// step runs one random workload op (writes dominate; every read op is a
// router-vs-oracle comparison).
func (g *oracleRig) step() {
	switch g.rng.Intn(10) {
	case 0, 1, 2, 3:
		g.opInsert()
	case 4, 5:
		g.opUpdate()
	case 6:
		g.opDelete()
	case 7:
		g.opCompareQuery()
	case 8:
		g.opCompareCount()
	case 9:
		g.opCompareAnalytics()
	}
}

// audit is the deep comparison pass: full ordered table scan plus a
// burst of random queries, counts and aggregates.
func (g *oracleRig) audit() {
	g.t.Helper()
	full := minidb.Query{Table: schema.TableHLE, OrderBy: []minidb.Order{{Col: "hle_id"}}}
	got, err := g.r.Query(full)
	if err != nil {
		g.t.Fatalf("router full scan: %v", err)
	}
	want, err := g.oracle.Query(full)
	if err != nil {
		g.t.Fatalf("oracle full scan: %v", err)
	}
	g.compareResults("full scan", got, want, -1)
	if len(got.Rows) != len(g.live) {
		g.t.Fatalf("full scan: %d rows, %d live pks", len(got.Rows), len(g.live))
	}
	for i := 0; i < 8; i++ {
		g.opCompareQuery()
		g.opCompareCount()
		g.opCompareAnalytics()
	}
}

func propertySteps(t *testing.T) int {
	if testing.Short() {
		return 80
	}
	return 250
}

func TestRouterOracleProperty(t *testing.T) {
	counts := []int{1, 2, 3, 5, 8}
	if testing.Short() {
		counts = []int{1, 2, 3}
	}
	for _, n := range counts {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			t.Parallel()
			g := newOracleRig(t, n, int64(1000+n))
			for i := 0; i < propertySteps(t); i++ {
				g.step()
			}
			g.audit()
		})
	}
}
