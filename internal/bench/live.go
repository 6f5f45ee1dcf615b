package bench

import (
	"fmt"
	"log"
	"time"
)

// Live Figure 5: the same sweep as Figure5, but measured instead of
// simulated — 96 real client goroutines browsing through a real gateway
// over 1..5 real replicas, every replica a full DM dialing one shared
// minidb served over dbnet's wire protocol. The shared database carries
// the calibrated ~120 ops/s ceiling, each replica the calibrated
// per-node CPU and thrash model, so the measured curve should reproduce
// the simulated (and published) shape: throughput climbs with replicas
// and flattens at the shared-database ceiling.

// LiveParams configures the measured sweep.
type LiveParams struct {
	// Base supplies the calibration (DB ceiling, CPU demand, thrash).
	Base BrowseParams
	// Clients is the closed-loop client population (Figure 5 uses 96).
	Clients int
	// Nodes are the replica counts to sweep (default 1,2,3,5).
	Nodes []int
	// HLEs is the seeded public event population.
	HLEs int
	// Filters is the rotating distinct-filter space the clients browse;
	// more filters means more distinct cache keys per replica.
	Filters int
	// Warmup and Measure bound each point's real-time window.
	Warmup, Measure time.Duration
	// TimeScale scales every model sleep (CPU bursts, DB service time)
	// by this factor so a sweep finishes quickly: 0.1 runs a 10x-faster
	// system whose *normalized* throughput matches TimeScale=1. Reported
	// numbers are normalized back.
	TimeScale float64
	// WriteEveryMS is the background writer cadence in model
	// milliseconds: a committed update bumps the HLE epoch, invalidating
	// every replica's count cache, as live ingest does. 0 disables.
	WriteEveryMS int
}

// DefaultLiveParams mirrors the Figure 5 testbed at 1/10 time scale.
func DefaultLiveParams() LiveParams {
	return LiveParams{
		Base:         DefaultBrowseParams(),
		Clients:      96,
		Nodes:        []int{1, 2, 3, 5},
		HLEs:         400,
		Filters:      20,
		Warmup:       500 * time.Millisecond,
		Measure:      4 * time.Second,
		TimeScale:    0.1,
		WriteEveryMS: 250,
	}
}

// LivePoint is one measured configuration. Rates are normalized to
// TimeScale=1 so they compare directly with BrowsePoint and the paper.
type LivePoint struct {
	Nodes          int     `json:"nodes"`
	Clients        int     `json:"clients"`
	RequestsPerSec float64 `json:"req_per_sec"`
	DBOpsPerSec    float64 `json:"db_ops_per_sec"`
	MeanResponseS  float64 `json:"mean_response_s"` // normalized seconds
	Failovers      int64   `json:"failovers"`
	ClientErrors   int64   `json:"client_errors"`
}

// Figure5Live measures the live replicated middle tier at each replica
// count: the sharded sweep's one-shard case, where every replica dials
// the one shared networked database directly. The database persists
// across the sweep; replicas and the gateway are rebuilt per point.
func Figure5Live(p LiveParams, logger *log.Logger) ([]LivePoint, error) {
	if len(p.Nodes) == 0 {
		p.Nodes = []int{1, 2, 3, 5}
	}
	sp := ShardedParams{
		Base: p.Base, Clients: p.Clients, Nodes: p.Nodes, HLEs: p.HLEs, Filters: p.Filters,
		Warmup: p.Warmup, Measure: p.Measure, TimeScale: p.TimeScale, WriteEveryMS: p.WriteEveryMS,
	}
	sp.defaults()
	pts, _, err := runShardedSweep(sp, 1, logger)
	if err != nil {
		return nil, err
	}
	out := make([]LivePoint, len(pts))
	for i, pt := range pts {
		out[i] = LivePoint{
			Nodes: pt.Nodes, Clients: pt.Clients,
			RequestsPerSec: pt.RequestsPerSec, DBOpsPerSec: pt.DBOpsPerSec,
			MeanResponseS: pt.MeanResponseS, Failovers: pt.failovers, ClientErrors: pt.ClientErrors,
		}
	}
	return out, nil
}

// FormatLive renders live points next to the simulated curve.
func FormatLive(title string, live []LivePoint, simulated []BrowsePoint) string {
	s := title + "\n"
	s += fmt.Sprintf("%6s %8s %12s %14s %12s %10s\n",
		"nodes", "clients", "live req/s", "live DB op/s", "sim req/s", "resp[s]")
	for _, lp := range live {
		simReq := "-"
		for _, sp := range simulated {
			if sp.Nodes == lp.Nodes {
				simReq = fmt.Sprintf("%.1f", sp.RequestsPerSec)
			}
		}
		s += fmt.Sprintf("%6d %8d %12.1f %14.1f %12s %10.2f\n",
			lp.Nodes, lp.Clients, lp.RequestsPerSec, lp.DBOpsPerSec, simReq, lp.MeanResponseS)
	}
	return s
}
