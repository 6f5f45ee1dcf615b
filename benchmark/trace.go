package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colseg"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Tracing lives in the harness, not in the program (in-program spans are
// ROADMAP item 2): timing decorators sit at the public interfaces the
// harness wires itself — dm.API and minidb.Engine — and one HTTP
// middleware in front of the web handler. The end-to-end runs carry none
// of them.

// The layers of a cell, outermost first. A span's depth is its index.
var layerNames = []string{
	"http.op",      // harness client: send, transport, net/http server, receive
	"web.page",     // web.Server handler
	"cluster.call", // gateway: admit, pick, route
	"dm.remote",    // redirect hop + the replica DM's semantic layer
	"shard.op",     // router: route, scatter, merge
	"dbnet.call",   // wire round trip + server dispatch
	"minidb.op",    // engine: plan + execute, or WAL commit
}

// layerDepth is a span's nesting depth. "dm.local" stands where
// "dm.remote" does: it roots the in-process replay of the replica-side
// calls, which measures the DM's semantic work without the redirect hop.
func layerDepth(name string) int {
	if name == "dm.local" {
		name = "dm.remote"
	}
	for i, n := range layerNames {
		if n == name {
			return i
		}
	}
	return -1
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder's epoch. Parent is the id of the enclosing span (-1 for the
// root of an operation); it is found afterwards by time containment, which
// is unambiguous because the traced replay keeps one operation in flight.
type span struct {
	ID     int    `json:"id"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Method string `json:"method"`
	Shard  int    `json:"shard"` // -1 unless the span belongs to one shard
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory. While off, the decorators forward
// without timing, which is how one cell serves both halves of the
// tracing-overhead measurement.
type recorder struct {
	on    atomic.Bool
	op    atomic.Int64 // id of the operation in flight (0 = none)
	epoch time.Time

	mu    sync.Mutex
	spans []span
	calls []func(dm.API) error // replica-side reads seen while recording
}

// keepCall remembers a replica-side read so it can be replayed in-process.
func (r *recorder) keepCall(call func(dm.API) error) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.calls = append(r.calls, call)
	r.mu.Unlock()
}

func (r *recorder) takeCalls() []func(dm.API) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start returns the span's start stamp, or 0 while recording is off.
func (r *recorder) start() int64 {
	if !r.on.Load() {
		return 0
	}
	return int64(time.Since(r.epoch)) + 1
}

func (r *recorder) finish(name, method string, shard int, t0 int64) {
	if t0 == 0 {
		return
	}
	end := int64(time.Since(r.epoch)) + 1
	op := r.op.Load()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Op: op, Parent: -1, Name: name, Method: method,
		Shard: shard, Start: t0, End: end,
	})
	r.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerBudget is what the spans of the operations under one kind of root
// add up to.
type layerBudget struct {
	ops      int              // operations
	rootNS   int64            // sum of root span durations
	selfNS   map[string]int64 // layer -> time attributed to it
	count    map[string]int64 // layer -> spans
	byMethod map[string]*hist // "layer/method" -> span durations
	children map[string]int64 // layer -> spans whose parent is in that layer
	perOp    []opBudget       // per operation, for tests
}

type opBudget struct {
	rootNS int64
	selfNS map[string]int64
}

func (b *layerBudget) sumSelf() int64 {
	var total int64
	for _, ns := range b.selfNS {
		total += ns
	}
	return total
}

// methodHist merges a layer's span durations of its read methods, or of
// its committing methods.
func (b *layerBudget) methodHist(layer string, reads bool) *hist {
	var h hist
	for key, mh := range b.byMethod {
		if len(key) <= len(layer) || key[:len(layer)+1] != layer+"/" {
			continue
		}
		switch key[len(layer)+1:] {
		case "Query", "Get", "ViewCount", "Tx.Query", "Tx.Get", "RunAnalytics":
			if reads {
				h.merge(mh)
			}
		case "Insert", "Update", "Delete", "Apply", "Tx.Commit":
			if !reads {
				h.merge(mh)
			}
		}
	}
	return &h
}

// analyze links every span to its parent and attributes each instant of an
// operation to the layers working at that instant. A layer's self time is
// its span minus the part its children cover; when children run side by
// side (a scatter), the instant is shared equally between the innermost
// active spans, so the layers of one operation always add up to its root.
// Budgets are kept per root layer ("http.op" for the traced operations,
// "dm.local" for the in-process replay); orphans counts the spans that
// fell outside any operation.
func (r *recorder) analyze() (budgets map[string]*layerBudget, orphans int) {
	budgets = map[string]*layerBudget{}
	byOp := map[int64][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	ops := make([]int64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		spans := byOp[op]
		// The root is the operation's one outermost span.
		var root *span
		for _, s := range spans {
			if root == nil || layerDepth(s.Name) < layerDepth(root.Name) {
				root = s
			}
		}
		if op == 0 || (root.Name != layerNames[0] && root.Name != "dm.local") {
			orphans += len(spans)
			continue
		}
		// Parent: the deepest shallower span that contains this one and
		// does not belong to another shard.
		kept := []*span{root}
		for _, s := range spans {
			if s == root {
				continue
			}
			d := layerDepth(s.Name)
			var parent *span
			for _, p := range spans {
				pd := layerDepth(p.Name)
				if p == s || pd >= d || p.Start > s.Start || p.End < s.End {
					continue
				}
				if p.Shard >= 0 && s.Shard >= 0 && p.Shard != s.Shard {
					continue
				}
				if parent == nil || pd > layerDepth(parent.Name) ||
					(pd == layerDepth(parent.Name) && p.Start > parent.Start) {
					parent = p
				}
			}
			if parent == nil {
				orphans++
				continue
			}
			s.Parent = parent.ID
			kept = append(kept, s)
		}
		b := budgets[root.Name]
		if b == nil {
			b = &layerBudget{
				selfNS: map[string]int64{}, count: map[string]int64{},
				byMethod: map[string]*hist{}, children: map[string]int64{},
			}
			budgets[root.Name] = b
		}
		b.ops++
		b.rootNS += root.dur()
		self := attribute(kept)
		b.perOp = append(b.perOp, opBudget{rootNS: root.dur(), selfNS: self})
		for name, ns := range self {
			b.selfNS[name] += ns
		}
		for _, s := range kept {
			b.count[s.Name]++
			key := s.Name + "/" + s.Method
			if b.byMethod[key] == nil {
				b.byMethod[key] = &hist{}
			}
			b.byMethod[key].record(time.Duration(s.dur()))
			if s.Parent >= 0 {
				b.children[r.spans[s.Parent].Name]++
			}
		}
	}
	return budgets, orphans
}

// attribute sweeps one operation's spans over time. In every interval
// between two span boundaries the innermost active spans (those with no
// active child) share the interval equally.
func attribute(spans []*span) map[string]int64 {
	cuts := make([]int64, 0, 2*len(spans))
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self := map[string]int64{}
	var rem float64 // carries the fractions of shared intervals
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		var leaves []*span
		for _, s := range spans {
			if s.Start > lo || s.End < hi {
				continue
			}
			leaf := true
			for _, c := range spans {
				if c.Parent == s.ID && c.Start <= lo && c.End >= hi {
					leaf = false
					break
				}
			}
			if leaf {
				leaves = append(leaves, s)
			}
		}
		if len(leaves) == 0 {
			continue
		}
		share := float64(hi-lo) / float64(len(leaves))
		for _, s := range leaves {
			whole := int64(share + rem)
			rem += share - float64(whole)
			self[s.Name] += whole
		}
	}
	return self
}

// tracedHandler is the web.page span: the web tier's handler, without the
// HTTP server around it.
func tracedHandler(r *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := r.start()
		next.ServeHTTP(w, req)
		r.finish(name, req.URL.Path, -1, t0)
	})
}

// tracedAPI times every dm.API call. It forwards Ping so that the gateway
// keeps probing a wrapped replica endpoint exactly as it probes a bare one.
type tracedAPI struct {
	in   dm.API
	r    *recorder
	name string
	keep bool // remember the reads for the in-process replay
}

var _ dm.API = (*tracedAPI)(nil)

func (a *tracedAPI) Ping() error {
	if p, ok := a.in.(interface{ Ping() error }); ok {
		return p.Ping()
	}
	return nil
}

func (a *tracedAPI) Authenticate(user, password, ip, kind string) (*dm.SessionInfo, error) {
	defer a.r.finish(a.name, "Authenticate", -1, a.r.start())
	return a.in.Authenticate(user, password, ip, kind)
}

func (a *tracedAPI) Logout(token string) error {
	defer a.r.finish(a.name, "Logout", -1, a.r.start())
	return a.in.Logout(token)
}

func (a *tracedAPI) QueryHLEs(token, ip string, f dm.HLEFilter) ([]*schema.HLE, error) {
	defer a.r.finish(a.name, "QueryHLEs", -1, a.r.start())
	if a.keep {
		a.r.keepCall(func(api dm.API) error { _, err := api.QueryHLEs(token, ip, f); return err })
	}
	return a.in.QueryHLEs(token, ip, f)
}

func (a *tracedAPI) CountHLEs(token, ip string, f dm.HLEFilter) (int, error) {
	defer a.r.finish(a.name, "CountHLEs", -1, a.r.start())
	if a.keep {
		a.r.keepCall(func(api dm.API) error { _, err := api.CountHLEs(token, ip, f); return err })
	}
	return a.in.CountHLEs(token, ip, f)
}

func (a *tracedAPI) GetHLE(token, ip, id string) (*schema.HLE, error) {
	defer a.r.finish(a.name, "GetHLE", -1, a.r.start())
	if a.keep {
		a.r.keepCall(func(api dm.API) error { _, err := api.GetHLE(token, ip, id); return err })
	}
	return a.in.GetHLE(token, ip, id)
}

func (a *tracedAPI) AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error) {
	defer a.r.finish(a.name, "AnalysesForHLE", -1, a.r.start())
	if a.keep {
		a.r.keepCall(func(api dm.API) error { _, err := api.AnalysesForHLE(token, ip, hleID); return err })
	}
	return a.in.AnalysesForHLE(token, ip, hleID)
}

func (a *tracedAPI) GetANA(token, ip, id string) (*schema.ANA, error) {
	defer a.r.finish(a.name, "GetANA", -1, a.r.start())
	return a.in.GetANA(token, ip, id)
}

func (a *tracedAPI) ListCatalogs(token, ip string) ([]*dm.Catalog, error) {
	defer a.r.finish(a.name, "ListCatalogs", -1, a.r.start())
	if a.keep {
		a.r.keepCall(func(api dm.API) error { _, err := api.ListCatalogs(token, ip); return err })
	}
	return a.in.ListCatalogs(token, ip)
}

func (a *tracedAPI) CreateHLE(token, ip string, h *schema.HLE) (string, error) {
	defer a.r.finish(a.name, "CreateHLE", -1, a.r.start())
	return a.in.CreateHLE(token, ip, h)
}

func (a *tracedAPI) ImportAnalysis(token, ip string, an *schema.ANA, files []dm.StoredFile) (string, error) {
	defer a.r.finish(a.name, "ImportAnalysis", -1, a.r.start())
	return a.in.ImportAnalysis(token, ip, an, files)
}

func (a *tracedAPI) FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error) {
	defer a.r.finish(a.name, "FindExistingAnalysis", -1, a.r.start())
	return a.in.FindExistingAnalysis(token, ip, spec)
}

func (a *tracedAPI) Publish(token, ip, kind, id string) error {
	defer a.r.finish(a.name, "Publish", -1, a.r.start())
	return a.in.Publish(token, ip, kind, id)
}

func (a *tracedAPI) ReadItem(token, ip, itemID string) (*dm.ItemData, error) {
	defer a.r.finish(a.name, "ReadItem", -1, a.r.start())
	return a.in.ReadItem(token, ip, itemID)
}

func (a *tracedAPI) UnitsInRange(token, ip string, t0, t1 float64) ([]*dm.UnitInfo, error) {
	defer a.r.finish(a.name, "UnitsInRange", -1, a.r.start())
	return a.in.UnitsInRange(token, ip, t0, t1)
}

// tracedEngine times every minidb.Engine call that does work (schemas,
// table names and counters pass through the embedded engine untimed).
type tracedEngine struct {
	minidb.Engine
	r     *recorder
	name  string
	shard int
}

// The DM discovers two optional engine capabilities by type assertion:
// colseg.Runner (analytics shipped to the engine) and QueryEpoch (the
// shard-aware cache key). A decorator that hid them would silently send
// the DM down another path, so wrapEngine returns a type that has exactly
// the capabilities of the engine it wraps.
type tracedRunnerEngine struct{ tracedEngine }

type tracedRouterEngine struct{ tracedRunnerEngine }

type queryEpocher interface {
	QueryEpoch(minidb.Query) uint64
}

func wrapEngine(e minidb.Engine, r *recorder, name string, shard int) minidb.Engine {
	base := tracedEngine{Engine: e, r: r, name: name, shard: shard}
	_, runner := e.(colseg.Runner)
	_, epocher := e.(queryEpocher)
	switch {
	case runner && epocher:
		return &tracedRouterEngine{tracedRunnerEngine{base}}
	case runner:
		return &tracedRunnerEngine{base}
	case epocher:
		panic("benchmark: no decorator for an engine with QueryEpoch but no RunAnalytics")
	}
	return &base
}

func (e *tracedRunnerEngine) RunAnalytics(q colseg.Query) (*colseg.Result, error) {
	defer e.r.finish(e.name, "RunAnalytics", e.shard, e.r.start())
	return e.Engine.(colseg.Runner).RunAnalytics(q)
}

func (e *tracedRouterEngine) QueryEpoch(q minidb.Query) uint64 {
	defer e.r.finish(e.name, "QueryEpoch", e.shard, e.r.start())
	return e.Engine.(queryEpocher).QueryEpoch(q)
}

func (e *tracedEngine) Query(q minidb.Query) (*minidb.Result, error) {
	defer e.r.finish(e.name, "Query", e.shard, e.r.start())
	return e.Engine.Query(q)
}

func (e *tracedEngine) Get(table string, rowid int64) (minidb.Row, error) {
	defer e.r.finish(e.name, "Get", e.shard, e.r.start())
	return e.Engine.Get(table, rowid)
}

func (e *tracedEngine) Insert(table string, row minidb.Row) (int64, error) {
	defer e.r.finish(e.name, "Insert", e.shard, e.r.start())
	return e.Engine.Insert(table, row)
}

func (e *tracedEngine) Update(table string, rowid int64, row minidb.Row) error {
	defer e.r.finish(e.name, "Update", e.shard, e.r.start())
	return e.Engine.Update(table, rowid, row)
}

func (e *tracedEngine) Delete(table string, rowid int64) error {
	defer e.r.finish(e.name, "Delete", e.shard, e.r.start())
	return e.Engine.Delete(table, rowid)
}

func (e *tracedEngine) Apply(b *minidb.Batch) ([]int64, error) {
	defer e.r.finish(e.name, "Apply", e.shard, e.r.start())
	return e.Engine.Apply(b)
}

func (e *tracedEngine) TableLen(name string) int {
	defer e.r.finish(e.name, "TableLen", e.shard, e.r.start())
	return e.Engine.TableLen(name)
}

func (e *tracedEngine) TableEpoch(name string) uint64 {
	defer e.r.finish(e.name, "TableEpoch", e.shard, e.r.start())
	return e.Engine.TableEpoch(name)
}

func (e *tracedEngine) CreateCountView(name, table, groupBy string) error {
	defer e.r.finish(e.name, "CreateCountView", e.shard, e.r.start())
	return e.Engine.CreateCountView(name, table, groupBy)
}

func (e *tracedEngine) ViewCount(name string, key minidb.Value) (int, error) {
	defer e.r.finish(e.name, "ViewCount", e.shard, e.r.start())
	return e.Engine.ViewCount(name, key)
}

func (e *tracedEngine) BeginTx() minidb.Tx {
	t0 := e.r.start()
	tx := e.Engine.BeginTx()
	e.r.finish(e.name, "BeginTx", e.shard, t0)
	return &tracedTx{Tx: tx, e: e}
}

// tracedTx times the statements of an interactive transaction.
type tracedTx struct {
	minidb.Tx
	e *tracedEngine
}

func (t *tracedTx) Insert(table string, row minidb.Row) (int64, error) {
	defer t.e.r.finish(t.e.name, "Tx.Insert", t.e.shard, t.e.r.start())
	return t.Tx.Insert(table, row)
}

func (t *tracedTx) Update(table string, rowid int64, row minidb.Row) error {
	defer t.e.r.finish(t.e.name, "Tx.Update", t.e.shard, t.e.r.start())
	return t.Tx.Update(table, rowid, row)
}

func (t *tracedTx) Delete(table string, rowid int64) error {
	defer t.e.r.finish(t.e.name, "Tx.Delete", t.e.shard, t.e.r.start())
	return t.Tx.Delete(table, rowid)
}

func (t *tracedTx) Query(q minidb.Query) (*minidb.Result, error) {
	defer t.e.r.finish(t.e.name, "Tx.Query", t.e.shard, t.e.r.start())
	return t.Tx.Query(q)
}

func (t *tracedTx) Get(table string, rowid int64) (minidb.Row, error) {
	defer t.e.r.finish(t.e.name, "Tx.Get", t.e.shard, t.e.r.start())
	return t.Tx.Get(table, rowid)
}

func (t *tracedTx) Commit() error {
	defer t.e.r.finish(t.e.name, "Tx.Commit", t.e.shard, t.e.r.start())
	return t.Tx.Commit()
}

func (t *tracedTx) Rollback() {
	defer t.e.r.finish(t.e.name, "Tx.Rollback", t.e.shard, t.e.r.start())
	t.Tx.Rollback()
}
