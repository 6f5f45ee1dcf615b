package bench

import (
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/colseg"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Sharded Figure 5: the measured live sweep with the single shared
// database replaced by N shard databases behind a shard.Router in every
// replica (one shard is the single-database baseline: replicas dial it
// directly, which is also how Figure5Live runs). Each shard server
// carries the same calibrated ~120 ops/s ceiling the single database
// had, so with 2 shards the aggregate database budget doubles and
// throughput must keep climbing past the replica counts where the
// single-DB curve went flat — the ROADMAP item 1 claim, measured.
//
// Correctness is not assumed: before and after every shard count's
// sweep, a battery of scatter queries, counts and columnar analytics
// runs through the cell's database engine (the router, or the one
// database) AND through a single unsharded oracle holding identical
// rows, and the run hard-fails unless every result is bit-identical
// (math.Float64bits on every float, exact match on everything else).

// ShardedParams configures the sharded measured sweep.
type ShardedParams struct {
	// Base supplies the calibration (per-shard DB ceiling, CPU, thrash).
	Base BrowseParams
	// Clients is the closed-loop client population.
	Clients int
	// Shards are the shard counts to sweep (default 1,2 — the single-DB
	// baseline and the ceiling-doubled cell).
	Shards []int
	// Nodes are the replica counts to sweep per shard count.
	Nodes []int
	// HLEs / Filters shape the seeded catalog, as in LiveParams.
	HLEs    int
	Filters int
	// Warmup and Measure bound each point's real-time window.
	Warmup, Measure time.Duration
	// TimeScale scales every model sleep, as in LiveParams.
	TimeScale float64
	// WriteEveryMS is the background writer cadence in model
	// milliseconds; writes rotate across shards, exercising the
	// per-shard epoch invalidation. 0 disables.
	WriteEveryMS int
}

// DefaultShardedParams mirrors DefaultLiveParams with the node sweep
// extended past the single-DB flat zone.
func DefaultShardedParams() ShardedParams {
	return ShardedParams{
		Base:         DefaultBrowseParams(),
		Clients:      96,
		Shards:       []int{1, 2},
		Nodes:        []int{1, 2, 3, 5, 8},
		HLEs:         400,
		Filters:      20,
		Warmup:       500 * time.Millisecond,
		Measure:      4 * time.Second,
		TimeScale:    0.1,
		WriteEveryMS: 250,
	}
}

// ShardedPoint is one measured (shards, nodes) configuration,
// normalized to TimeScale=1.
type ShardedPoint struct {
	Shards         int     `json:"shards"`
	Nodes          int     `json:"nodes"`
	Clients        int     `json:"clients"`
	RequestsPerSec float64 `json:"req_per_sec"`
	DBOpsPerSec    float64 `json:"db_ops_per_sec"` // summed across shards
	MeanResponseS  float64 `json:"mean_response_s"`
	ClientErrors   int64   `json:"client_errors"`
}

// ShardedResult is the whole sweep plus its correctness accounting.
type ShardedResult struct {
	Points []ShardedPoint `json:"points"`
	// OracleChecks counts scatter-gather results proven bit-identical to
	// the single-node oracle. The sweep hard-fails on any mismatch, so a
	// surviving result implies every check passed.
	OracleChecks int `json:"oracle_checks"`
}

func (p *ShardedParams) defaults() {
	if p.Clients <= 0 {
		p.Clients = 96
	}
	if len(p.Shards) == 0 {
		p.Shards = []int{1, 2}
	}
	if len(p.Nodes) == 0 {
		p.Nodes = []int{1, 2, 3, 5, 8}
	}
	if p.TimeScale <= 0 {
		p.TimeScale = 1
	}
	if p.HLEs <= 0 {
		p.HLEs = 400
	}
	if p.Filters <= 0 {
		p.Filters = 20
	}
}

// Figure5Sharded measures the sharded cell at every (shards, nodes)
// configuration.
func Figure5Sharded(p ShardedParams, logger *log.Logger) (*ShardedResult, error) {
	p.defaults()
	out := &ShardedResult{}
	for _, nShards := range p.Shards {
		pts, checks, err := runShardedSweep(p, nShards, logger)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			out.Points = append(out.Points, pt.ShardedPoint)
		}
		out.OracleChecks += checks
	}
	return out, nil
}

// sweepPoint is a measured point plus what only the live sweep reports.
type sweepPoint struct {
	ShardedPoint
	failovers int64
}

// runShardedSweep stands up one shard count's databases, seeds them and
// the oracle identically, proves the cell's database engine bit-identical
// to the oracle, sweeps the node counts, and proves it again after the
// writer has churned epochs. It returns the points and the number of
// oracle checks passed.
func runShardedSweep(p ShardedParams, nShards int, logger *log.Logger) ([]sweepPoint, int, error) {
	oracle, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		return nil, 0, err
	}
	defer oracle.Close()
	// Every shard server carries the same calibrated ceiling the single
	// shared database had, sped up by TimeScale: sharding multiplies the
	// aggregate budget instead of splitting it.
	srv := dbnet.Options{MaxOpsPerSec: p.Base.DBMaxQueriesPerSec / p.TimeScale}
	b, err := cluster.StartBackends(nShards, srv, func(boot minidb.Engine) error {
		for i := 0; i < p.HLEs; i++ {
			h := &schema.HLE{
				ID: sweepHLEID(i), Version: 1, Owner: "loader", Public: true,
				KindHint: "flare", TStart: float64(i), TStop: float64(i + 1),
				PeakRate: float64(100 + i%7), Day: int64(i % p.Filters), CalibVersion: 1,
			}
			if _, err := boot.Insert(schema.TableHLE, h.ToRow()); err != nil {
				return err
			}
			if _, err := oracle.Insert(schema.TableHLE, h.ToRow()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	defer b.Close()

	checks, err := verifyShardedOracle(b.Boot, oracle, p)
	if err != nil {
		return nil, 0, fmt.Errorf("shards=%d pre-sweep oracle: %w", nShards, err)
	}

	var pts []sweepPoint
	for _, n := range p.Nodes {
		pt, err := runShardedPoint(p, b, n, logger)
		if err != nil {
			return nil, 0, err
		}
		if logger != nil {
			logger.Printf("bench: fig5 point shards=%d nodes=%d req/s=%.1f db=%.1f",
				nShards, n, pt.RequestsPerSec, pt.DBOpsPerSec)
		}
		pts = append(pts, pt)
	}

	post, err := verifyShardedOracle(b.Boot, oracle, p)
	if err != nil {
		return nil, 0, fmt.Errorf("shards=%d post-sweep oracle: %w", nShards, err)
	}
	return pts, checks + post, nil
}

func sweepHLEID(i int) string { return fmt.Sprintf("hle-shrd-%05d", i) }

// verifyShardedOracle runs the scatter-gather battery through the
// cell's boot engine (the shard router, or the one database itself) and
// the oracle and demands bit-identical results.
func verifyShardedOracle(r minidb.Engine, oracle *minidb.DB, p ShardedParams) (int, error) {
	checks := 0
	queries := []minidb.Query{
		{Table: schema.TableHLE, OrderBy: []minidb.Order{{Col: "tstart"}}},
		{Table: schema.TableHLE, OrderBy: []minidb.Order{{Col: "tstart", Desc: true}}, Limit: 25, Offset: 3},
		{Table: schema.TableHLE,
			Where:   []minidb.Pred{{Col: "kind_hint", Op: minidb.OpEq, Val: minidb.S("flare")}},
			OrderBy: []minidb.Order{{Col: "tstart"}},
			Project: []string{"hle_id", "tstart", "peak_rate"}},
		{Table: schema.TableHLE,
			Where: []minidb.Pred{{Col: "tstart", Op: minidb.OpBetween,
				Val: minidb.F(10), Hi: minidb.F(float64(p.HLEs) * 0.75)}},
			OrderBy: []minidb.Order{{Col: "tstart"}}},
		{Table: schema.TableHLE, Count: true},
		{Table: schema.TableHLE, Count: true,
			Where: []minidb.Pred{{Col: "day", Op: minidb.OpEq, Val: minidb.I(3)}}},
	}
	for qi, q := range queries {
		got, err := r.Query(q)
		if err != nil {
			return checks, fmt.Errorf("cell query %d: %w", qi, err)
		}
		want, err := oracle.Query(q)
		if err != nil {
			return checks, fmt.Errorf("oracle query %d: %w", qi, err)
		}
		if err := sameResult(got, want); err != nil {
			return checks, fmt.Errorf("query %d not bit-identical to oracle: %w", qi, err)
		}
		checks++
	}
	analytics := []colseg.Query{
		{Table: schema.TableHLE, Agg: colseg.AggCount},
		{Table: schema.TableHLE, Agg: colseg.AggStats, Col: "tstart"},
		{Table: schema.TableHLE, Agg: colseg.AggStats, Col: "peak_rate", GroupBy: "kind_hint"},
		{Table: schema.TableHLE, Agg: colseg.AggHist, Col: "tstart",
			Bins: 16, Lo: 0, Hi: float64(p.HLEs)},
	}
	run := func(q colseg.Query) (*colseg.Result, error) { return colseg.RunRows(r, q) }
	if rn, ok := r.(colseg.Runner); ok {
		run = rn.RunAnalytics
	}
	for qi, q := range analytics {
		got, err := run(q)
		if err != nil {
			return checks, fmt.Errorf("cell analytics %d: %w", qi, err)
		}
		want, err := colseg.RunRows(oracle, q)
		if err != nil {
			return checks, fmt.Errorf("oracle analytics %d: %w", qi, err)
		}
		if err := sameAnalytics(got, want); err != nil {
			return checks, fmt.Errorf("analytics %d not bit-identical to oracle: %w", qi, err)
		}
		checks++
	}
	return checks, nil
}

func sameResult(got, want *minidb.Result) error {
	if got.Count != want.Count {
		return fmt.Errorf("count %d vs %d", got.Count, want.Count)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			return fmt.Errorf("row %d: width %d vs %d", i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.T != w.T {
				return fmt.Errorf("row %d col %d: type %v vs %v", i, j, g.T, w.T)
			}
			same := true
			switch g.T {
			case minidb.FloatType:
				same = math.Float64bits(g.F) == math.Float64bits(w.F)
			case minidb.IntType:
				same = g.I == w.I
			default:
				same = g.String() == w.String()
			}
			if !same {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, g, w)
			}
		}
	}
	return nil
}

func sameAnalytics(got, want *colseg.Result) error {
	if got.Rows != want.Rows || got.NonNull != want.NonNull {
		return fmt.Errorf("rows %d/%d vs %d/%d", got.Rows, got.NonNull, want.Rows, want.NonNull)
	}
	for _, v := range [][2]float64{{got.Sum, want.Sum}, {got.Min, want.Min}, {got.Max, want.Max}} {
		if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			return fmt.Errorf("aggregate %x vs %x (%v vs %v)",
				math.Float64bits(v[0]), math.Float64bits(v[1]), v[0], v[1])
		}
	}
	if len(got.Bins) != len(want.Bins) {
		return fmt.Errorf("%d bins vs %d", len(got.Bins), len(want.Bins))
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			return fmt.Errorf("bin %d: %d vs %d", i, got.Bins[i], want.Bins[i])
		}
	}
	if len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d groups vs %d", len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g.Key != w.Key || g.Rows != w.Rows || g.NonNull != w.NonNull ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			return fmt.Errorf("group %d: %+v vs %+v", i, g, w)
		}
	}
	return nil
}

// runShardedPoint measures one node count over the sweep's backends:
// p.Clients closed-loop browsers through a fresh gateway and replicas.
func runShardedPoint(p ShardedParams, b *cluster.Backends, nodes int, logger *log.Logger) (sweepPoint, error) {
	// Per-call CPU burst: the page's calibrated demand split over its
	// API calls, exactly as the simulator splits it over slices.
	perCall := time.Duration(p.Base.WebCPUDemand / float64(p.Base.QueriesPerRequest) *
		p.TimeScale * float64(time.Second))
	cell, err := cluster.StartCell(b.Addrs(), cluster.CellOptions{
		Replicas: nodes,
		Capacity: cluster.Capacity{
			Workers:         int(p.Base.WebCores),
			CPUPerCall:      perCall,
			ThrashThreshold: int(p.Base.Thrash.Threshold),
			ThrashFactor:    p.Base.Thrash.Factor,
		},
		Gateway:    cluster.GatewayOptions{HealthInterval: 200 * time.Millisecond},
		NamePrefix: fmt.Sprintf("shrd-%d-%d", len(b.DBs), nodes),
		Logger:     logger,
	})
	if err != nil {
		return sweepPoint{}, err
	}
	defer cell.Close()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	if p.WriteEveryMS > 0 {
		// Background writer: live ingest keeps committing, bumping the HLE
		// epoch so replica caches must revalidate — without it every count
		// becomes a cache hit and the DB ceiling never binds. Rewriting an
		// existing row commits (epoch bump) without growing the table, and
		// on a sharded cell bumps only its row's shard epoch, so replicas'
		// caches on other shards stay warm.
		go func() {
			defer close(writerDone)
			cadence := time.Duration(float64(p.WriteEveryMS) * p.TimeScale * float64(time.Millisecond))
			i := 0
			for {
				select {
				case <-stop:
					return
				case <-time.After(cadence):
				}
				res, err := b.Boot.Query(minidb.Query{
					Table: schema.TableHLE,
					Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq,
						Val: minidb.S(sweepHLEID(i % p.HLEs))}},
				})
				if err != nil || len(res.RowIDs) == 0 {
					continue
				}
				_ = b.Boot.Update(schema.TableHLE, res.RowIDs[0], res.Rows[0])
				i++
			}
		}()
	} else {
		close(writerDone)
	}

	type window struct {
		pages   int64
		respSum time.Duration
		errs    int64
	}
	results := make([]window, p.Clients)
	measuring := make(chan struct{})
	done := make(chan struct{})
	var clientWG sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			w := &results[c]
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				// One browse page, the §7.2 anatomy: a result-list query,
				// its count, and detail fetches — QueriesPerRequest calls
				// against the database tier.
				f := dm.HLEFilter{
					Kind: "flare", HasDay: true, Day: int64(i % p.Filters),
					Limit: p.Base.QueriesPerRequest - 2,
				}
				ok := true
				hles, err := cell.GW.QueryHLEs("", "10.1.1.1", f)
				if err != nil {
					ok = false
				}
				if ok {
					if _, err := cell.GW.CountHLEs("", "10.1.1.1", f); err != nil {
						ok = false
					}
				}
				for j := 0; ok && j < len(hles); j++ {
					if _, err := cell.GW.GetHLE("", "10.1.1.1", hles[j].ID); err != nil {
						ok = false
					}
				}
				inWindow := false
				select {
				case <-measuring:
					select {
					case <-done:
					default:
						inWindow = true
					}
				default:
				}
				if inWindow {
					if ok {
						w.pages++
						w.respSum += time.Since(start)
					} else {
						w.errs++
					}
				}
			}
		}(c)
	}

	time.Sleep(p.Warmup)
	ops0 := int64(0)
	for _, s := range b.Srvs {
		ops0 += s.Ops()
	}
	failovers0 := cell.GW.Failovers()
	close(measuring)
	time.Sleep(p.Measure)
	close(done)
	opsDelta := -ops0
	for _, s := range b.Srvs {
		opsDelta += s.Ops()
	}
	close(stop)
	<-writerDone
	clientWG.Wait()

	var pages, errs int64
	var respSum time.Duration
	for i := range results {
		pages += results[i].pages
		errs += results[i].errs
		respSum += results[i].respSum
	}
	meas := p.Measure.Seconds()
	pt := sweepPoint{failovers: cell.GW.Failovers() - failovers0, ShardedPoint: ShardedPoint{
		Shards:         len(b.DBs),
		Nodes:          nodes,
		Clients:        p.Clients,
		RequestsPerSec: float64(pages) / meas * p.TimeScale,
		DBOpsPerSec:    float64(opsDelta) / meas * p.TimeScale,
		ClientErrors:   errs,
	}}
	if pages > 0 {
		pt.MeanResponseS = respSum.Seconds() / float64(pages) / p.TimeScale
	}
	return pt, nil
}

// FormatSharded renders the sharded sweep as per-shard-count curves.
func FormatSharded(title string, res *ShardedResult) string {
	s := title + "\n"
	s += fmt.Sprintf("%7s %6s %8s %12s %14s %10s\n",
		"shards", "nodes", "clients", "live req/s", "db op/s (sum)", "resp[s]")
	for _, pt := range res.Points {
		s += fmt.Sprintf("%7d %6d %8d %12.1f %14.1f %10.2f\n",
			pt.Shards, pt.Nodes, pt.Clients, pt.RequestsPerSec, pt.DBOpsPerSec, pt.MeanResponseS)
	}
	s += fmt.Sprintf("oracle: %d scatter-gather results bit-identical to the single-node baseline\n",
		res.OracleChecks)
	return s
}
