package main

// The benchmark's contract: workloads and metrics by name. BENCHMARK.json
// at the root of the repository lists the same names (the smoke test
// holds the two together).

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(runConfig) (*outcome, error)
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadDef{
	{Name: "browse_cell", run: runCell,
		Why: "anonymous read-only page mix over HTTP on the 2x2 cell; no commits, caches stay warm: web, gateway and redirect hop do the work"},
	{Name: "churn_cell", run: runCell,
		Why: "same pages with 5% CreateHLE commits; every commit bumps a shard epoch: work moves to shard scatter, dbnet and minidb"},
	{Name: "ingest_node", run: runIngest,
		Why: "LoadUnits of generated telemetry on one node: codecs, wavelet views, detection, lake and group commit; no cell layer runs"},
	{Name: "analyze_node", run: runAnalyze,
		Why: "analyses and catalog-wide aggregates on a loaded node: pl, idl, kernels, FITS decode, lake reads, colseg; no cell layer runs"},
}

// The operation behind op_p50_ms, ops_per_s and cpu_ms_per_op is the
// workload's own: a page on the cell workloads (the median is the event
// page's), one LoadUnits batch scaled to ingestBatchPhotons photons on
// ingest_node, one analysis request on analyze_node (the latency there is
// of first-time, non-imaging analyses; the rate counts every request).
//
// Every bound is the contract's widest, 0.25: on the shared 2-core host
// the benchmark was built on, ten seeds spread by 4-15 % (quartiles over
// median) and by 20-26 % when a disturbed stretch of minutes covered three
// of the ten runs (README.md). Tighten them on a quieter host.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, layer = package name. A metric of a layer that a
// workload does not run reads 0 there, which is itself the prediction
// ("nothing in the cell is touched").
var perLayer = []metricDef{
	// Demoted from end-to-end: the tail spread by more than any bound
	// (0.22-0.30 on browse_cell, 0.14-0.27 on ingest_node over ten seeds).
	{Name: "op_p95_ms", Unit: "ms", Better: "lower"},
	// Demoted from end-to-end: they exist on one workload only.
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_photons_per_s", Unit: "1/s", Better: "higher"},
	{Name: "disk_bytes_per_raw_byte", Unit: "ratio", Better: "lower"},
	{Name: "analysis_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "imaging_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "aggregate_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "http.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "web.self_us_per_page", Unit: "us", Better: "lower"},
	{Name: "web.api_calls_per_page", Unit: "count", Better: "lower"},
	{Name: "web.html_bytes_per_page", Unit: "bytes", Better: "lower"},
	{Name: "web.page_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "web.over_50ms_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "cluster.shed", Unit: "count", Better: "lower"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower"},
	{Name: "cluster.degraded_serves", Unit: "count", Better: "lower"},
	{Name: "dm.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dm.semantic_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dm.redirect_us_per_call", Unit: "us", Better: "lower"},
	{Name: "dm.query_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dm.engine_ops_per_call", Unit: "count", Better: "lower"},
	{Name: "dm.ingest_self_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "dm.pipeline_speedup", Unit: "ratio", Better: "higher"},
	{Name: "dm.rawphotons_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "dm.analytics_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "shard.fanout_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.scatter_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dbnet.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "dbnet.ops_per_page", Unit: "count", Better: "lower"},
	{Name: "minidb.read_us_per_op", Unit: "us", Better: "lower"},
	{Name: "minidb.commit_us_per_txn", Unit: "us", Better: "lower"},
	{Name: "minidb.rows_scanned_per_query", Unit: "count", Better: "lower"},
	{Name: "minidb.full_scans", Unit: "count", Better: "lower"},
	{Name: "minidb.txns_per_group_commit", Unit: "count", Better: "higher"},
	{Name: "minidb.disk_bytes", Unit: "bytes", Better: "lower"},
	{Name: "telemetry.packgz_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "wavelet.views_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "analysis.detect_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "fits.decode_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "analysis.lightcurve_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "analysis.spectrogram_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "analysis.histogram_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "analysis.imaging_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "lake.store_ms_per_unit", Unit: "ms", Better: "lower"},
	{Name: "lake.read_us_per_item", Unit: "us", Better: "lower"},
	{Name: "lake.commits", Unit: "count", Better: "lower"},
	{Name: "lake.containers_live", Unit: "count", Better: "lower"},
	{Name: "lake.journal_bytes", Unit: "bytes", Better: "lower"},
	{Name: "lake.phys_bytes_per_live_byte", Unit: "ratio", Better: "lower"},
	{Name: "lake.disk_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pl.self_ms_per_request", Unit: "ms", Better: "lower"},
	{Name: "pl.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pl.memo_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "pl.steals", Unit: "count", Better: "lower"},
	{Name: "pl.hedges_launched", Unit: "count", Better: "lower"},
	{Name: "idl.invocations", Unit: "count", Better: "lower"},
	{Name: "idl.utilisation", Unit: "ratio", Better: "higher"},
	{Name: "colseg.scan_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "colseg.segs_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "colseg.rows_vec_per_query", Unit: "count", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "load.gen_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.layers_sum_ratio", Unit: "ratio", Better: "higher"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
