// Package bench regenerates the paper's evaluation: Figure 4 (browse
// throughput vs clients), Figure 5 (browse throughput vs middle-tier
// nodes), Table 1 (processing performance) and Tables 2-3 (workload
// characteristics), plus the §3.4 approximated-analysis claim.
//
// The experiments replay the paper's 2003 testbeds in the discrete-event
// simulator (internal/sim) with calibrated resource demands, because the
// hardware — a SUN E3000 database server, PIII web servers, 96 client
// workstations, a 2x177 MHz processing server — cannot be reassembled.
// The real components execute elsewhere in the test suite; here the
// calibrated model reproduces the *shape* of the published curves:
// who wins, where saturation and degradation set in, and by what factor.
package bench

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// BrowseParams calibrates the web-browsing testbed (§7.1-7.2).
type BrowseParams struct {
	// DBMaxQueriesPerSec is the database ceiling: "the underlying
	// database ... supports a maximum throughput of around 120 HEDC
	// requests per second" worth of queries (§7.3).
	DBMaxQueriesPerSec float64
	// QueriesPerRequest is the §7.2 anatomy: ~7 DM queries per page.
	QueriesPerRequest int
	// WebCPUDemand is the middle-tier core-seconds to parse, query-manage
	// and render one response page.
	WebCPUDemand float64
	// WebCores is the per-node core count (dual PIII 1 GHz).
	WebCores float64
	// Thrash models the node's degradation under too many simultaneous
	// clients (memory pressure: Figure 4's drop from ~17 to ~3 req/s).
	Thrash sim.Thrash
	// ResponseBytes is HTML + dynamic images per request (12 KB + 35 KB).
	ResponseBytes int64
	// LANBytesPerSec is the switched 100 Mb/s Ethernet.
	LANBytesPerSec float64
	// Warmup and Measure bound the virtual measurement window (seconds).
	Warmup, Measure float64
}

// DefaultBrowseParams returns the calibration used in EXPERIMENTS.md.
func DefaultBrowseParams() BrowseParams {
	return BrowseParams{
		DBMaxQueriesPerSec: 120,
		QueriesPerRequest:  7,
		WebCPUDemand:       0.11, // ~17 req/s fits in 2 cores at low load
		WebCores:           2,
		// Calibrated so one node serves ~17 req/s at 16 clients and ~3
		// req/s at 96 clients (Figure 4's endpoints).
		Thrash:         sim.Thrash{Threshold: 16, Factor: 0.063},
		ResponseBytes:  47 * 1024,
		LANBytesPerSec: 100e6 / 8,
		Warmup:         120,
		Measure:        600,
	}
}

// BrowsePoint is one measured configuration.
type BrowsePoint struct {
	Clients        int     `json:"clients"`
	Nodes          int     `json:"nodes"`
	RequestsPerSec float64 `json:"req_per_sec"`
	DBQueriesPS    float64 `json:"db_queries_per_sec"`
	MeanResponseS  float64 `json:"mean_response_s"`
	WebUtilization float64 `json:"web_utilization"` // mean across nodes
	DBUtilization  float64 `json:"db_utilization"`
}

// RunBrowse simulates nClients closed-loop web clients spread over nNodes
// middle-tier nodes against one shared database.
func RunBrowse(p BrowseParams, nClients, nNodes int) BrowsePoint {
	k := sim.NewKernel()

	// Shared database: a serial station at the calibrated ceiling.
	db := sim.NewResource(k, 1)
	dbService := 1 / p.DBMaxQueriesPerSec

	// Middle-tier nodes.
	nodes := make([]*sim.CPU, nNodes)
	for i := range nodes {
		nodes[i] = sim.NewCPU(k, p.WebCores, p.Thrash)
	}
	lan := sim.NewLink(k, 0.0002, p.LANBytesPerSec)

	var completed int64
	var respTimes sim.Tally
	var dbQueries int64
	measStart := p.Warmup
	measEnd := p.Warmup + p.Measure

	// CPU demand split: a slice before the queries, a slice between each,
	// and the rendering slice at the end.
	slices := p.QueriesPerRequest + 1
	cpuSlice := p.WebCPUDemand / float64(slices)

	for c := 0; c < nClients; c++ {
		node := nodes[c%nNodes] // requests spread evenly (§7.2)
		k.Go(func(proc *sim.Proc) {
			for {
				if proc.Now() >= measEnd {
					return
				}
				start := proc.Now()
				// Page generation on the middle tier, interleaved with
				// database queries.
				node.Use(proc, cpuSlice, "usr")
				for q := 0; q < p.QueriesPerRequest; q++ {
					db.Use(proc, dbService)
					if proc.Now() >= measStart && proc.Now() < measEnd {
						dbQueries++
					}
					node.Use(proc, cpuSlice, "usr")
				}
				// Response + embedded dynamic images over the LAN.
				lan.Transfer(proc, p.ResponseBytes)
				if proc.Now() >= measStart && proc.Now() < measEnd {
					completed++
					respTimes.Add(proc.Now() - start)
				}
				// Zero think time: the §7.2 worst case.
			}
		})
	}
	// Run until every client finishes its in-flight request and exits;
	// measurement only counts completions inside the window.
	k.Run()

	window := p.Measure
	pt := BrowsePoint{
		Clients:        nClients,
		Nodes:          nNodes,
		RequestsPerSec: float64(completed) / window,
		DBQueriesPS:    float64(dbQueries) / window,
		MeanResponseS:  respTimes.Mean(),
		DBUtilization:  db.MeanBusy(),
	}
	var util float64
	for _, n := range nodes {
		util += n.Utilization("")
	}
	pt.WebUtilization = util / float64(nNodes)
	return pt
}

// Figure4 sweeps client counts on a single middle-tier node, as in the
// paper's Figure 4 (16..96 clients).
func Figure4(p BrowseParams, clientCounts []int) []BrowsePoint {
	if len(clientCounts) == 0 {
		clientCounts = []int{16, 32, 48, 64, 80, 96}
	}
	out := make([]BrowsePoint, 0, len(clientCounts))
	for _, n := range clientCounts {
		out = append(out, RunBrowse(p, n, 1))
	}
	return out
}

// Figure5 sweeps middle-tier node counts at 96 clients, as in Figure 5.
func Figure5(p BrowseParams, nodeCounts []int) []BrowsePoint {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 3, 5}
	}
	out := make([]BrowsePoint, 0, len(nodeCounts))
	for _, m := range nodeCounts {
		out = append(out, RunBrowse(p, 96, m))
	}
	return out
}

// FormatBrowse renders points as an aligned table, one row per point.
func FormatBrowse(title string, pts []BrowsePoint) string {
	s := title + "\n"
	s += fmt.Sprintf("%8s %6s %10s %12s %10s %8s %8s\n",
		"clients", "nodes", "req/s", "DB q/s", "resp[s]", "webCPU", "dbBusy")
	for _, p := range pts {
		s += fmt.Sprintf("%8d %6d %10.1f %12.1f %10.2f %7.0f%% %7.0f%%\n",
			p.Clients, p.Nodes, p.RequestsPerSec, p.DBQueriesPS,
			p.MeanResponseS, p.WebUtilization*100, p.DBUtilization*100)
	}
	return s
}

// PeakThroughput returns the maximum requests/s across points.
func PeakThroughput(pts []BrowsePoint) float64 {
	peak := 0.0
	for _, p := range pts {
		peak = math.Max(peak, p.RequestsPerSec)
	}
	return peak
}
