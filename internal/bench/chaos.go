package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Availability under chaos: the internal/chaos harness run as an
// experiment rather than a test. Every enumerated fault schedule breaks
// one hop of a live two-replica cluster while the scripted workload
// browses and writes; the record is what fraction of requests were
// answered (live or from the degraded cache), how slow the slowest
// request was, and how fast the cluster converged after the fault
// cleared. A separate demonstration partitions the shared database away
// completely and records the graceful-degradation contract: cached
// anonymous browse still answers (marked degraded) while writes fail
// fast with the typed DB-unavailable error.

// ChaosPoint is one fault schedule's availability record.
type ChaosPoint struct {
	Schedule     string  `json:"schedule"`
	Hop          string  `json:"hop"`
	Mode         string  `json:"mode"`
	At           int     `json:"at"`
	Requests     int     `json:"requests"`
	OK           int     `json:"ok"`
	Degraded     int     `json:"degraded"`
	TypedErrors  int     `json:"typed_errors"`
	WritesAcked  int     `json:"writes_acked"`
	WritesFailed int     `json:"writes_failed"`
	Availability float64 `json:"availability"`
	MaxWallMs    float64 `json:"max_wall_ms"`
	ConvergedMs  float64 `json:"converged_ms"`
}

// ChaosDegraded records the total-database-loss demonstration.
type ChaosDegraded struct {
	BrowseServed     bool    `json:"browse_served"`      // cached anonymous browse answered
	BrowseMarked     bool    `json:"browse_marked"`      // ...tagged with the degraded marker
	BrowseRows       int     `json:"browse_rows"`        // rows in the degraded answer
	StaleWrites      uint64  `json:"stale_writes"`       // write-epochs the answer is behind
	WriteFailedTyped bool    `json:"write_failed_typed"` // write failed with the typed error
	WriteFailMs      float64 `json:"write_fail_ms"`      // ...and how fast
}

// ChaosResult is the whole experiment.
type ChaosResult struct {
	Schedules    int                `json:"schedules"`
	Points       []ChaosPoint       `json:"points"`
	ModeAvail    map[string]float64 `json:"mode_availability"` // mean availability per fault mode
	WorstWallMs  float64            `json:"worst_wall_ms"`     // slowest request anywhere
	DeadlineMs   float64            `json:"deadline_ms"`       // the bound it stayed under
	Degraded     ChaosDegraded      `json:"db_loss_degraded"`
	TotalElapsed float64            `json:"total_elapsed_s"`
}

// RunChaos executes every enumerated schedule plus the database-loss
// demonstration. logf (optional) narrates progress.
func RunChaos(logf func(string, ...any)) (*ChaosResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	scheds := chaos.Schedules()
	res := &ChaosResult{
		Schedules:  len(scheds),
		ModeAvail:  make(map[string]float64),
		DeadlineMs: 2000,
	}
	modeSum := make(map[string]float64)
	modeN := make(map[string]int)
	for i, s := range scheds {
		r, err := chaos.Run(s, chaos.Config{})
		if err != nil {
			return nil, fmt.Errorf("schedule %s: %w", s.Name(), err)
		}
		p := ChaosPoint{
			Schedule:     s.Name(),
			Hop:          string(s.Hop),
			Mode:         s.Mode.String(),
			At:           s.At,
			Requests:     r.Requests,
			OK:           r.OK,
			Degraded:     r.Degraded,
			TypedErrors:  r.TypedErr,
			WritesAcked:  r.WritesAcked,
			WritesFailed: r.WritesFailed,
			Availability: r.Available(),
			MaxWallMs:    float64(r.MaxWall) / float64(time.Millisecond),
			ConvergedMs:  float64(r.Converged) / float64(time.Millisecond),
		}
		res.Points = append(res.Points, p)
		modeSum[p.Mode] += p.Availability
		modeN[p.Mode]++
		if p.MaxWallMs > res.WorstWallMs {
			res.WorstWallMs = p.MaxWallMs
		}
		if (i+1)%10 == 0 {
			logf("chaos: %d/%d schedules", i+1, len(scheds))
		}
	}
	for m, sum := range modeSum {
		res.ModeAvail[m] = sum / float64(modeN[m])
	}
	var err error
	res.Degraded, err = runDBLossDemo()
	if err != nil {
		return nil, fmt.Errorf("db-loss demo: %w", err)
	}
	res.TotalElapsed = time.Since(start).Seconds()
	return res, nil
}

// runDBLossDemo partitions the shared database away from every replica
// and records the degradation contract.
func runDBLossDemo() (ChaosDegraded, error) {
	var out ChaosDegraded
	b, err := cluster.StartBackends(1, dbnet.Options{}, func(db minidb.Engine) error {
		for i := 0; i < 24; i++ {
			h := &schema.HLE{
				ID: fmt.Sprintf("hle-demo-%04d", i), Version: 1, Owner: "sci", Public: true,
				KindHint: "flare", TStart: float64(i), TStop: float64(i + 1),
				Day: int64(i % 8), CalibVersion: 1,
			}
			if _, err := db.Insert(schema.TableHLE, h.ToRow()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	defer b.Close()
	cell, err := cluster.StartCell(b.Addrs(), cluster.CellOptions{
		Replicas: 2,
		Gateway:  cluster.GatewayOptions{HealthInterval: time.Minute},
		Client: dbnet.ClientOptions{
			CallTimeout: 200 * time.Millisecond, DialTimeout: 200 * time.Millisecond,
		},
	})
	if err != nil {
		return out, err
	}
	defer cell.Close()
	gw := cell.GW

	f := dm.HLEFilter{Kind: "flare"}
	warm, err := gw.QueryHLEs("", "10.8.0.1", f)
	if err != nil {
		return out, fmt.Errorf("warm browse: %w", err)
	}
	si, err := gw.Authenticate("sci", "pw", "10.8.0.1", dm.SessionHLE)
	if err != nil {
		return out, fmt.Errorf("auth: %w", err)
	}

	b.Srvs[0].Close() // the partition: every replica loses the shared database

	rows, err := gw.QueryHLEs("", "10.8.0.1", f)
	out.BrowseServed = len(rows) == len(warm)
	out.BrowseMarked = cluster.IsDegraded(err)
	out.BrowseRows = len(rows)
	var de *cluster.DegradedError
	if d, ok := err.(*cluster.DegradedError); ok {
		de = d
		out.StaleWrites = de.StaleWrites
	}

	t0 := time.Now()
	_, werr := gw.CreateHLE(si.Token, "10.8.0.1", &schema.HLE{
		KindHint: "flare", Day: 1, TStart: 7777, TStop: 7778, Version: 1, CalibVersion: 1,
	})
	out.WriteFailMs = float64(time.Since(t0)) / float64(time.Millisecond)
	out.WriteFailedTyped = dm.IsDBUnavailable(werr)
	return out, nil
}

// FormatChaos renders the experiment in the repo's table style.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos — availability under enumerated network faults (%d schedules)\n", r.Schedules)
	fmt.Fprintf(&b, "  %-12s %12s %14s\n", "fault mode", "schedules", "availability")
	modes := make([]string, 0, len(r.ModeAvail))
	for m := range r.ModeAvail {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		n := 0
		for _, p := range r.Points {
			if p.Mode == m {
				n++
			}
		}
		fmt.Fprintf(&b, "  %-12s %12d %13.1f%%\n", m, n, 100*r.ModeAvail[m])
	}
	fmt.Fprintf(&b, "  slowest request anywhere: %.0f ms (bound: %.0f ms)\n", r.WorstWallMs, r.DeadlineMs)
	d := r.Degraded
	fmt.Fprintf(&b, "  database partitioned away: browse served=%v marked-degraded=%v (%d rows, %d writes behind); write failed typed=%v in %.0f ms\n",
		d.BrowseServed, d.BrowseMarked, d.BrowseRows, d.StaleWrites, d.WriteFailedTyped, d.WriteFailMs)
	return b.String()
}
