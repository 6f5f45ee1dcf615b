// Command hedc-bench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout.
//
// Usage:
//
//	hedc-bench                  # run everything
//	hedc-bench -exp fig4        # one experiment: fig4, fig5, fig5live,
//	                            # table1, table2, table3, approx, engine, chaos
//	hedc-bench -json out/       # also write BENCH_fig4.json, BENCH_fig5.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/bench"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|fig4|fig5|fig5live|fig5sharded|table1|table2|table3|tables|tablesscale|approx|engine|chaos|stampede|analytics|timetravel")
	jsonDir := flag.String("json", "", "directory to write BENCH_fig4.json / BENCH_fig5.json / BENCH_fig5sharded.json / BENCH_tables.json / BENCH_tablesscale.json / BENCH_chaos.json / BENCH_stampede.json / BENCH_analytics.json / BENCH_lake.json into (empty: no JSON)")
	flag.Parse()

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false

	var fig4Pts, fig5Pts []bench.BrowsePoint
	var livePts []bench.LivePoint
	var shardedRes *bench.ShardedResult
	var ingestRes []bench.IngestResult
	var chaosRes *bench.ChaosResult
	var stampedeRes *bench.StampedeResult
	var anaRes *bench.AnalyticsResult
	var ttRes *bench.TimeTravelResult
	var farmRes *bench.TablesScaleResult

	if run("fig4") {
		any = true
		fig4Pts = bench.Figure4(bench.DefaultBrowseParams(), nil)
		fmt.Println(bench.FormatBrowse("Figure 4 — browse throughput vs clients (1 middle-tier node)", fig4Pts))
		fmt.Printf("paper: ~17 req/s peak at 16 clients, ~3 req/s at 96\n\n")
	}
	if run("fig5") || run("fig5live") {
		any = true
		fig5Pts = bench.Figure5(bench.DefaultBrowseParams(), nil)
		fmt.Println(bench.FormatBrowse("Figure 5 — browse throughput vs middle-tier nodes (96 clients)", fig5Pts))
		fmt.Printf("paper: 3 req/s at 1 node rising to 18 req/s (~120 DB queries/s) at 5 nodes\n\n")
	}
	if run("fig5live") {
		any = true
		var err error
		livePts, err = bench.Figure5Live(bench.DefaultLiveParams(), log.New(os.Stderr, "", 0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5live:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatLive("Figure 5 (live) — measured gateway+replicas vs simulated curve", livePts, fig5Pts))
		fmt.Printf("live: real clients through a real gateway over real replicas sharing one networked DB\n\n")
	}
	if run("fig5sharded") {
		any = true
		var err error
		shardedRes, err = bench.Figure5Sharded(bench.DefaultShardedParams(), log.New(os.Stderr, "", 0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig5sharded:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatSharded("Figure 5 (sharded) — measured cell with the metadata tier partitioned across shards", shardedRes))
		fmt.Printf("with >=2 shards the single-DB ceiling lifts: aggregate req/s keeps\n")
		fmt.Printf("climbing past 5 replicas where the 1-shard curve goes flat\n\n")
	}
	if run("table1") {
		any = true
		p := bench.DefaultProcessingParams()
		fmt.Println(bench.FormatTable1(bench.Table1(p, bench.ImagingWorkload())))
		fmt.Printf("paper: 6027 / 3117 / 2059 / 1380 s\n\n")
		fmt.Println(bench.FormatTable1(bench.Table1(p, bench.HistogramWorkload())))
		fmt.Printf("paper: 960 / 655 / 841 / 821 / 438 s\n\n")
	}
	if run("table2") {
		any = true
		fmt.Println(bench.FormatCharacteristics(bench.WorkloadCharacteristics(bench.ImagingWorkload()), 2))
	}
	if run("table3") {
		any = true
		fmt.Println(bench.FormatCharacteristics(bench.WorkloadCharacteristics(bench.HistogramWorkload()), 3))
	}
	if run("tables") {
		any = true
		var err error
		ingestRes, err = bench.RunIngest(bench.DefaultIngestParams(), log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatIngest(ingestRes))
		fmt.Printf("measured fast-ingest path behind Tables 1-3's data preparation:\n")
		fmt.Printf("group-committed WAL, batched wire writes, parallel unit pipeline\n\n")
	}
	if run("tablesscale") {
		any = true
		var err error
		farmRes, err = bench.RunTablesScale(bench.DefaultTablesScaleParams(), log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tablesscale:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatTablesScale(farmRes))
		fmt.Printf("measured processing farm behind Table 1's workloads at today's scale:\n")
		fmt.Printf("work stealing + preemption bound the interactive tail, the epoch-keyed\n")
		fmt.Printf("result cache makes unchanged re-analysis free, hedging rides out a\n")
		fmt.Printf("wedged interpreter\n\n")
	}
	if run("approx") {
		any = true
		r, err := bench.RunApprox(300_000, schema.AnaLightcurve, 0.05)
		if err != nil {
			fmt.Fprintln(os.Stderr, "approx:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatApprox(r))
		ri, err := bench.RunApproxImaging(60_000, 0.1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "approx imaging:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatApprox(ri))
		fmt.Printf("paper (§3.4): approximation shortens holistic response time by >= 10x\n")
	}
	if run("engine") {
		any = true
		if err := runEngine(); err != nil {
			fmt.Fprintln(os.Stderr, "engine:", err)
			os.Exit(1)
		}
	}
	if run("chaos") {
		any = true
		var err error
		chaosRes, err = bench.RunChaos(log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatChaos(chaosRes))
		fmt.Printf("every schedule held the invariants: bounded latency, no duplicate\n")
		fmt.Printf("effects, typed failures only, convergence after heal\n\n")
	}
	if run("stampede") {
		any = true
		var err error
		stampedeRes, err = bench.RunStampede(log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stampede:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatStampede(stampedeRes))
		fmt.Printf("the same 10x open-loop spike: the fixed semaphore collapses into a\n")
		fmt.Printf("retry storm while the adaptive limiter sheds typed hints, serves the\n")
		fmt.Printf("crowd commit-behind, and stands back down when it leaves\n\n")
	}
	if run("analytics") {
		any = true
		var err error
		anaRes, err = bench.RunAnalytics(bench.DefaultAnalyticsParams(), log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analytics:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatAnalytics(anaRes))
		fmt.Printf("columnar segments + zone maps turn full-archive statistics (the\n")
		fmt.Printf("histogram workload's recalibration scans) into sub-scan work\n\n")
	}
	if run("timetravel") {
		any = true
		var err error
		ttRes, err = bench.RunTimeTravel(bench.DefaultTimeTravelParams(), log.New(os.Stderr, "", 0).Printf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timetravel:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatTimeTravel(ttRes))
		fmt.Printf("as-of reads replay the journal prefix at open, then cost the same as\n")
		fmt.Printf("head reads; the anchor pin kept every commit openable across the rewrite\n\n")
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := writeBenchJSON(*jsonDir, fig4Pts, fig5Pts, livePts, shardedRes, ingestRes, chaosRes, stampedeRes, anaRes, ttRes, farmRes); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			os.Exit(1)
		}
	}
}

// writeBenchJSON persists whatever figure data this invocation produced
// as machine-readable files, so plots and regression checks don't have
// to scrape the human tables. Figure 5 carries both curves: the
// simulated sweep and, when fig5live ran, the measured one.
func writeBenchJSON(dir string, fig4, fig5 []bench.BrowsePoint, live []bench.LivePoint, shardedRes *bench.ShardedResult, ingest []bench.IngestResult, chaosRes *bench.ChaosResult, stampedeRes *bench.StampedeResult, anaRes *bench.AnalyticsResult, ttRes *bench.TimeTravelResult, farmRes *bench.TablesScaleResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		return nil
	}
	if fig4 != nil {
		err := write("BENCH_fig4.json", map[string]any{
			"figure": "fig4", "axis": "clients", "simulated": fig4,
		})
		if err != nil {
			return err
		}
	}
	if fig5 != nil || live != nil {
		payload := map[string]any{"figure": "fig5", "axis": "nodes"}
		if fig5 != nil {
			payload["simulated"] = fig5
		}
		if live != nil {
			payload["live"] = live
		}
		if err := write("BENCH_fig5.json", payload); err != nil {
			return err
		}
	}
	if shardedRes != nil {
		err := write("BENCH_fig5sharded.json", map[string]any{
			"figure": "fig5sharded", "axis": "nodes",
			"note": "measured N-shard x M-replica cell; every scatter-gather result proven bit-identical to a single-node oracle before and after each sweep",
			"live": shardedRes,
		})
		if err != nil {
			return err
		}
	}
	if ingest != nil {
		err := write("BENCH_tables.json", map[string]any{
			"experiment": "ingest", "note": "fast-ingest path behind Tables 1-3 data preparation",
			"results": ingest,
		})
		if err != nil {
			return err
		}
	}
	if chaosRes != nil {
		err := write("BENCH_chaos.json", map[string]any{
			"experiment": "chaos",
			"note":       "availability under enumerated network faults; db_loss_degraded records stale-cache browse + fail-fast writes with the database partitioned away",
			"results":    chaosRes,
		})
		if err != nil {
			return err
		}
	}
	if stampedeRes != nil {
		err := write("BENCH_stampede.json", map[string]any{
			"experiment": "stampede",
			"note":       "open-loop 10x flare-alert browse spike against a live cell: fixed admission semaphore + naive-retry clients vs adaptive limiter + brownout ladder + hint-honoring clients; goodput = requests answered within the 2s SLO",
			"results":    stampedeRes,
		})
		if err != nil {
			return err
		}
	}
	if anaRes != nil {
		err := write("BENCH_analytics.json", map[string]any{
			"experiment": "analytics",
			"note":       "vectorized columnar scans vs row-at-a-time over synthetic events; results bit-identical between paths",
			"results":    anaRes,
		})
		if err != nil {
			return err
		}
	}
	if farmRes != nil {
		err := write("BENCH_tablesscale.json", map[string]any{
			"experiment": "tablesscale",
			"note":       "measured processing farm: mixed interactive/bulk load vs farm size, preemption and speculation A/B tails, epoch-keyed memoization with every cached delivery verified bit-identical to an uncached oracle",
			"results":    farmRes,
		})
		if err != nil {
			return err
		}
	}
	if ttRes != nil {
		err := write("BENCH_lake.json", map[string]any{
			"experiment": "timetravel",
			"note":       "as-of read latency by commit depth over the lake's commit journal, plus the compaction/GC win; every view verified bit-identical against a commit-replay oracle",
			"results":    ttRes,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runEngine is the one experiment that exercises the real storage engine
// rather than the discrete-event simulation: GOMAXPROCS reader goroutines
// browse and count through the DM while one writer keeps committing new
// events. It reports the snapshot and cache counters that make the
// concurrency behaviour observable: every commit publishes an immutable
// table snapshot (reads never block on it), and repeated identical counts
// between commits are served from the DM's epoch-keyed cache.
func runEngine() error {
	const runFor = 2 * time.Second
	tmp, err := os.MkdirTemp("", "hedc-engine")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	db, err := dmOpenEngine(tmp)
	if err != nil {
		return err
	}
	d := db.dm
	sci, err := d.Authenticate("bench", "pw", "127.0.0.1", dm.SessionHLE)
	if err != nil {
		return err
	}
	for i := 0; i < 500; i++ {
		if _, err := d.CreateHLE(sci, &schema.HLE{
			KindHint: "flare", Day: int64(i % 30), TStart: float64(i), TStop: float64(i + 1),
			Version: 1, CalibVersion: 1,
		}); err != nil {
			return err
		}
	}

	readers := runtime.GOMAXPROCS(0)
	var reads atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	meta0 := d.MetaDB().Stats()
	hits0 := d.Stats().QueryCacheHits.Load()
	misses0 := d.Stats().QueryCacheMisses.Load()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				if i%2 == 0 {
					if _, err := d.CountHLEs(sci, dm.HLEFilter{Kind: "flare", Day: int64(i % 30), HasDay: true}); err != nil {
						return
					}
				} else {
					if _, err := d.QueryHLEs(sci, dm.HLEFilter{Kind: "flare", Limit: 20}); err != nil {
						return
					}
				}
				reads.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := d.CreateHLE(sci, &schema.HLE{
				KindHint: "flare", Day: int64(i % 30), TStart: float64(1000 + i),
				TStop: float64(1001 + i), Version: 1, CalibVersion: 1,
			}); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond) // ingest cadence, not a tight loop
		}
	}()
	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()

	meta := d.MetaDB().Stats()
	hits := d.Stats().QueryCacheHits.Load() - hits0
	misses := d.Stats().QueryCacheMisses.Load() - misses0
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Printf("Engine — snapshot reads + epoch-keyed DM cache (%d readers, 1 writer, %v)\n", readers, runFor)
	fmt.Printf("  %-28s %10d\n", "reads served", reads.Load())
	fmt.Printf("  %-28s %10.0f\n", "reads/sec", float64(reads.Load())/runFor.Seconds())
	fmt.Printf("  %-28s %10d\n", "commits (snapshots published)", meta.SnapshotPublishes-meta0.SnapshotPublishes)
	fmt.Printf("  %-28s %10d\n", "engine queries", meta.Queries-meta0.Queries)
	fmt.Printf("  %-28s %10d / %d (%.1f%% hit rate)\n", "DM query cache hits/misses", hits, misses, hitRate)
	fmt.Printf("reads proceed against published snapshots while the writer commits;\n")
	fmt.Printf("identical counts between commits never reach the engine\n\n")
	return nil
}

type engineHandles struct {
	dm *dm.DM
}

func dmOpenEngine(dir string) (*engineHandles, error) {
	mdb, err := minidb.Open("", schema.AllSchemas()...) // in-memory: no disk I/O in the numbers
	if err != nil {
		return nil, err
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, dir, 0)
	if err != nil {
		return nil, err
	}
	d, err := dm.Open(dm.Options{
		Node: "bench-engine", MetaDB: mdb, DefaultArchive: "disk-0",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, err
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		return nil, err
	}
	if err := d.Bootstrap("secret"); err != nil {
		return nil, err
	}
	if err := d.CreateUser("bench", "pw", dm.GroupScientist,
		dm.RightBrowse, dm.RightDownload, dm.RightAnalyze, dm.RightUpload); err != nil {
		return nil, err
	}
	return &engineHandles{dm: d}, nil
}
