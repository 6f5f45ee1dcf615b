package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dm"
)

// runConfig is what one workload run is told.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // result, trace and scratch files go under here
	conns    int    // nproc: the users of analyze_node
	users    int    // connections of the cell's open and closed loops
	mini     bool   // the smoke test's miniature
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	values            map[string]float64 // metric name -> value
	samples           map[string]int64   // metric name -> samples behind it

	mu   sync.Mutex // fail is called from the load's goroutines
	errs []string   // first few failures, for the log
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int64{}}
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed += n
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64, samples int64) {
	o.values[name] = v
	o.samples[name] = samples
}

// openLoopRate is the mean arrival rate of the open-loop phase, in
// operations per second: about a third of what the cell serves through
// two connections on the 2-core host the first numbers were taken on, so
// that latency is service time plus light queueing, not backlog.
const openLoopRate = 250

// cellPhases splits a run's measured seconds into its phases.
type cellPhases struct {
	warm, open, closed1, closed time.Duration
}

func phasesFor(cfg runConfig) cellPhases {
	s := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// warm-up, open loop (tails, writes), one connection untraced,
		// the same connection traced.
		return cellPhases{warm: s / 10, open: 3 * s / 10, closed1: 2 * s / 10, closed: 4 * s / 10}
	}
	return cellPhases{warm: 6 * s / 100, open: 64 * s / 100, closed: 30 * s / 100}
}

// setupRounds is how many times a deployment is built to take the median
// set-up time; the last one built is the one measured.
func setupRounds(cfg runConfig) int {
	if cfg.mini || cfg.trace {
		return 1
	}
	return 3
}

func median(xs []float64) float64 { return quartile(xs, 2) }

// runCell runs browse_cell or churn_cell.
func runCell(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	writeShare := 0.0
	if cfg.workload == "churn_cell" {
		writeShare = 0.05
	}
	size := fullCell
	if cfg.mini {
		size = cellSize{hles: 600, days: 20, stdCat: 10, extCat: 30, anaEvery: 4, anaMax: 3}
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up, timed: databases, servers, seeding, replicas, gateway, web,
	// client connections and the scientist's login.
	var c *cell
	var clients []*cellClient
	var setups []float64
	for round := 0; round < setupRounds(cfg); round++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		c, err = startCell(filepath.Join(cfg.outDir, fmt.Sprintf("work-%d-%d", os.Getpid(), round)), cfg.seed, size, rec)
		if err != nil {
			return nil, err
		}
		clients, err = newClients(c, cfg.users, writeShare > 0)
		if err != nil {
			c.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()
	// Have the kernel write the set-ups' dirty pages out now, not under
	// the measured phases.
	syscall.Sync()
	out.set("setup_s", median(setups), int64(len(setups)))

	ph := phasesFor(cfg)
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 1))
	due := poissonDue(rng, ph.open, openLoopRate)
	script := genScript(rng, len(due)+60000, c.data, writeShare)
	openOps, loopOps := script[:len(due)], script[len(due):]

	run := func(cl *cellClient, op scriptOp) {
		if err := cl.do(op); err != nil {
			out.fail(1, "%v", err)
		}
	}
	var loopNext atomic.Int64 // the closed-loop phases walk loopOps in order
	nextLoopOp := func() scriptOp { return loopOps[int(loopNext.Add(1)-1)%len(loopOps)] }

	rss := startRSSSampler()

	// Warm-up, discarded: connections, caches, lazy count views.
	n, _ := closedLoop(cfg.users, ph.warm, 0, func(cn, _ int) { run(clients[cn], nextLoopOp()) })
	out.attempted += int64(n)

	// Open loop: independent users at a fixed mean rate.
	// The median is taken over the event page alone (/hle?id=, the paper's
	// browse request and 40 % of the mix): the median of the whole mix
	// falls on the edge between two kinds of page and moved by 15 %
	// between seeds, the event page's by 3 %. The tail is of all pages.
	pageWin := newWindowHist(ph.open, time.Second)
	hleWin := newWindowHist(ph.open, time.Second)
	writeWin := newWindowHist(ph.open, ph.open)
	ol := &openLoop{
		due: due, conns: cfg.users,
		do: func(cn, i int) { run(clients[cn], openOps[i]) },
		rec: func(cn, i int, d time.Duration) {
			if openOps[i].kind == opWrite {
				writeWin.record(due[i], d)
			} else {
				pageWin.record(due[i], d)
				if openOps[i].kind == opHLE {
					hleWin.record(due[i], d)
				}
			}
		},
	}
	p0 := readProc()
	ol.run()
	out.attempted += int64(len(due))
	pages, writes := pageWin.total(), writeWin.total()
	genLate := ol.genLateHist()

	if !cfg.trace {
		// Closed loop, more users than cores: capacity.
		var donePages atomic.Int64
		sampler := startRateSampler(500*time.Millisecond, donePages.Load)
		n, _ := closedLoop(cfg.users, ph.closed, 0, func(cn, _ int) {
			op := nextLoopOp()
			run(clients[cn], op)
			if op.kind != opWrite {
				donePages.Add(1)
			}
		})
		rate, cpuPerOp, _ := sampler.finish()
		out.attempted += int64(n)
		np := donePages.Load()
		out.set("op_p50_ms", ms(hleWin.quantile(0.50)), hleWin.total().count())
		out.set("ops_per_s", rate, np)
		out.set("cpu_ms_per_op", cpuPerOp, np)
	} else if err := traceCell(cfg, out, c, clients, rec, ph, nextLoopOp, run, p0); err != nil {
		return nil, err
	}
	// Open-loop figures over all samples: per-layer metrics when traced,
	// detail beside the end-to-end set otherwise.
	out.set("op_p95_ms", ms(pageWin.quantile(0.95)), pages.count())
	out.set("load.gen_late_p99_ms", ms(genLate.quantile(0.99)), genLate.count())
	out.set("web.page_p99_ms", ms(pages.quantile(0.99)), pages.count())
	out.set("web.over_50ms_ratio", pages.above(50*time.Millisecond), pages.count())
	out.set("write_p50_ms", ms(writes.quantile(0.50)), writes.count())
	out.set("write_p95_ms", ms(writes.quantile(0.95)), writes.count())

	// End gate of churn_cell: every acknowledged write is there.
	checked, bad := verifyWrites(clients)
	out.attempted += int64(checked)
	if bad > 0 {
		out.fail(int64(bad), "%d of %d end-of-run write checks failed", bad, checked)
	}
	setRSS(out, rss)
	return out, nil
}

// setRSS reports the median resident set of the measured phase and the
// process's high-water mark.
func setRSS(out *outcome, rss *rssSampler) {
	mb, n := rss.finish()
	out.set("rss_mb", mb, n)
	out.set("proc.peak_rss_mb", peakRSSMB(), 1)
}

// cellCounters is the layers' own public counters, read around a phase.
type cellCounters struct {
	webPages, webBytes     int64
	cacheHits, cacheMisses int64
	single, scatter        uint64
	dbOps                  int64
	queries, rowsScanned   int64
	fullScans              int64
	groupCommits, grouped  int64
}

func readCellCounters(c *cell) cellCounters {
	var k cellCounters
	ws := c.web.Stats()
	k.webPages, k.webBytes = ws.Pages.Load(), ws.HTMLBytes.Load()
	for _, r := range c.reps {
		st := r.DM().Stats()
		k.cacheHits += st.QueryCacheHits.Load()
		k.cacheMisses += st.QueryCacheMisses.Load()
	}
	for _, rt := range c.routers {
		st := rt.Status()
		k.single += st.SingleShard
		k.scatter += st.Scatter
	}
	k.dbOps = c.dbOps()
	for _, db := range c.dbs {
		st := db.Stats()
		k.queries += st.Queries
		k.rowsScanned += st.RowsScanned
		k.fullScans += st.FullScans
		k.groupCommits += st.GroupCommits
		k.grouped += st.GroupedTxns
	}
	return k
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceCell is the traced replay: the script goes on closed-loop over ONE
// connection, first with the decorators forwarding untimed, then timing,
// so spans nest unambiguously by time containment and the two halves give
// the tracing overhead. Per-layer metrics come from the spans and from
// the layers' public counters read around the traced half.
func traceCell(cfg runConfig, out *outcome, c *cell, clients []*cellClient, rec *recorder,
	ph cellPhases, nextOp func() scriptOp, run func(*cellClient, scriptOp), p0 procSnap) error {
	cl := clients[0]

	var plain hist
	n, _ := closedLoop(1, ph.closed1, 0, func(_, _ int) {
		t0 := time.Now()
		run(cl, nextOp())
		plain.record(time.Since(t0))
	})
	out.attempted += int64(n)

	const maxTracedOps = 6000 // bounds the span buffer, not the time
	var traced hist
	var opKinds []opKind
	k0 := readCellCounters(c)
	rec.on.Store(true)
	n, _ = closedLoop(1, ph.closed, maxTracedOps, func(_, i int) {
		op := nextOp()
		opKinds = append(opKinds, op.kind)
		rec.op.Store(int64(i + 1))
		t0, s0 := time.Now(), rec.start()
		run(cl, op)
		rec.finish("http.op", opName(op.kind), -1, s0)
		traced.record(time.Since(t0))
	})
	rec.op.Store(0)
	k1 := readCellCounters(c)
	p1 := readProc()
	out.attempted += int64(n)

	// Replay the replica-side reads of the traced half in-process on a
	// replica's own DM: the same semantic work without the redirect hop.
	calls := rec.takeCalls()
	local := &tracedAPI{in: dm.Local{DM: c.reps[0].DM()}, r: rec, name: "dm.local"}
	for i, call := range calls {
		rec.op.Store(int64(maxTracedOps + 1 + i))
		_ = call(local)
	}
	rec.op.Store(0)
	rec.on.Store(false)

	budgets, orphans := rec.analyze()
	b, replay := budgets["http.op"], budgets["dm.local"]
	if b == nil || replay == nil {
		return fmt.Errorf("traced replay recorded no operations")
	}
	if err := rec.writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return err
	}

	nPages := 0
	for _, k := range opKinds {
		if k != opWrite {
			nPages++
		}
	}
	fp := float64(max(nPages, 1))
	per := func(layer string) float64 { return ratio(us(time.Duration(b.selfNS[layer])), float64(b.count[layer])) }
	// The traced operations' time, and how much of it the layers explain.
	out.set("trace.op_us", us(traced.mean()), traced.count())
	out.set("trace.layers_sum_ratio", ratio(float64(b.sumSelf()), float64(b.rootNS)), int64(b.ops))
	out.set("trace.overhead_ratio", ratio(float64(traced.mean()-plain.mean()), float64(plain.mean())), plain.count())
	out.set("trace.orphan_spans", float64(orphans), int64(len(rec.spans)))

	out.set("http.self_us_per_op", ratio(us(time.Duration(b.selfNS["http.op"])), float64(len(opKinds))), int64(len(opKinds)))
	out.set("web.self_us_per_page", ratio(us(time.Duration(b.selfNS["web.page"])), fp), int64(nPages))
	out.set("web.api_calls_per_page", ratio(float64(b.children["web.page"]), fp), int64(nPages))
	out.set("web.html_bytes_per_page", ratio(float64(k1.webBytes-k0.webBytes), float64(k1.webPages-k0.webPages)), k1.webPages-k0.webPages)
	out.set("cluster.self_us_per_call", per("cluster.call"), b.count["cluster.call"])
	st := c.gw.Status()
	out.set("cluster.shed", float64(st.Shed), 1)
	out.set("cluster.failovers", float64(st.Failovers), 1)
	out.set("cluster.degraded_serves", float64(st.DegradedServes), 1)
	out.set("dm.self_us_per_call", per("dm.remote"), b.count["dm.remote"])
	semantic := ratio(us(time.Duration(replay.selfNS["dm.local"])), float64(replay.count["dm.local"]))
	out.set("dm.semantic_us_per_call", semantic, replay.count["dm.local"])
	out.set("dm.redirect_us_per_call", per("dm.remote")-semantic, b.count["dm.remote"])
	out.set("dm.query_cache_hit_ratio", ratio(float64(k1.cacheHits-k0.cacheHits),
		float64(k1.cacheHits-k0.cacheHits+k1.cacheMisses-k0.cacheMisses)), k1.cacheHits-k0.cacheHits+k1.cacheMisses-k0.cacheMisses)
	out.set("dm.engine_ops_per_call", ratio(float64(b.children["dm.remote"]), float64(b.count["dm.remote"])), b.count["dm.remote"])
	out.set("shard.self_us_per_op", per("shard.op"), b.count["shard.op"])
	out.set("shard.fanout_per_op", ratio(float64(b.children["shard.op"]), float64(b.count["shard.op"])), b.count["shard.op"])
	routed := float64(k1.single - k0.single + k1.scatter - k0.scatter)
	out.set("shard.scatter_ratio", ratio(float64(k1.scatter-k0.scatter), routed), int64(routed))
	out.set("dbnet.self_us_per_op", per("dbnet.call"), b.count["dbnet.call"])
	out.set("dbnet.ops_per_page", ratio(float64(k1.dbOps-k0.dbOps), float64(len(opKinds))), int64(len(opKinds)))
	reads, commits := b.methodHist("minidb.op", true), b.methodHist("minidb.op", false)
	out.set("minidb.read_us_per_op", us(reads.mean()), reads.count())
	out.set("minidb.commit_us_per_txn", us(commits.mean()), commits.count())
	out.set("minidb.rows_scanned_per_query", ratio(float64(k1.rowsScanned-k0.rowsScanned), float64(k1.queries-k0.queries)), k1.queries-k0.queries)
	out.set("minidb.full_scans", float64(k1.fullScans-k0.fullScans), k1.queries-k0.queries)
	out.set("minidb.txns_per_group_commit", ratio(float64(k1.grouped-k0.grouped), float64(k1.groupCommits-k0.groupCommits)), k1.groupCommits-k0.groupCommits)
	out.set("minidb.disk_bytes", float64(dirBytes(c.dir)), 1)
	out.set("proc.alloc_kb_per_op", ratio(p1.allocKB-p0.allocKB, float64(out.attempted)), out.attempted)
	out.set("proc.gc_pause_ms_total", ms(p1.gcPause-p0.gcPause), int64(p1.gcCycles-p0.gcCycles))
	return nil
}

func opName(k opKind) string {
	return [...]string{"/hle", "/browse?kind&day", "/catalog", "/browse?kind", "/", "CreateHLE"}[k]
}
