package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Tables at scale — the processing farm under concurrent mixed load. Where
// Table 1 replays the paper's fixed configurations in the simulator, this
// experiment measures the real PL rebuilt around the work-stealing
// scheduler: N closed-loop users submitting a mix of interactive and bulk
// analyses against farms of increasing size, then three targeted A/B
// phases for the farm's individual mechanisms:
//
//   - preemption: interactive sojourn with and without priority tiering
//     while a bulk flood occupies the farm and the admission gate;
//   - memoization: cold vs warm latency for canned re-analyses, the
//     epoch-bump invalidation (a recalibration commit), and a hard
//     bit-identity check of every cached delivery against an uncached
//     oracle;
//   - speculation: sojourn tail with one interpreter wedged, with and
//     without hedged re-dispatch.

// TablesScaleParams configures the measured farm experiment.
type TablesScaleParams struct {
	// Users is the closed-loop population of the farm-size sweep; each
	// submits JobsPerUser analyses back to back.
	Users       int
	JobsPerUser int
	// InteractiveShare is the probability a sweep job is interactive
	// (the rest are bulk reprocessing).
	InteractiveShare float64
	// FarmSizes are the manager counts to sweep; every manager runs
	// ManagerServers interpreters.
	FarmSizes      []int
	ManagerServers int
	// MaxInSystem bounds admitted requests (the paper's bound of 20).
	MaxInSystem int

	// BulkFlood and InteractiveProbes shape the preemption A/B: a flood
	// of bulk jobs large enough to exhaust the admission gate, probed by
	// sequential interactive submissions.
	BulkFlood         int
	InteractiveProbes int

	// CannedVariants distinct re-analyses are warmed and then repeated
	// WarmRepeats times against the result cache.
	CannedVariants int
	WarmRepeats    int

	// HedgeJobs sequential jobs run against a farm with one interpreter
	// wedged (stalling WedgeHang per invocation); the hedge fires between
	// HedgeMin and HedgeMax after the primary attempt starts.
	HedgeJobs int
	WedgeHang time.Duration
	HedgeMin  time.Duration
	HedgeMax  time.Duration

	// DayLength / BackgroundRate size the loaded telemetry, and so the
	// per-analysis compute.
	DayLength      float64
	BackgroundRate float64
	Seed           int64
}

// DefaultTablesScaleParams returns the calibration used in EXPERIMENTS.md.
func DefaultTablesScaleParams() TablesScaleParams {
	return TablesScaleParams{
		Users: 12, JobsPerUser: 8, InteractiveShare: 0.7,
		FarmSizes: []int{1, 2, 4}, ManagerServers: 2, MaxInSystem: 20,
		BulkFlood: 32, InteractiveProbes: 10,
		CannedVariants: 4, WarmRepeats: 30,
		HedgeJobs: 24, WedgeHang: 800 * time.Millisecond,
		HedgeMin: 50 * time.Millisecond, HedgeMax: 100 * time.Millisecond,
		DayLength: 1200, BackgroundRate: 30, Seed: 42,
	}
}

// FarmPoint is one farm size of the mixed-load sweep.
type FarmPoint struct {
	Managers         int     `json:"managers"`
	Servers          int     `json:"servers"`
	Jobs             int     `json:"jobs"`
	WallS            float64 `json:"wall_s"`
	JobsPerSec       float64 `json:"jobs_per_sec"`
	InteractiveP50Ms float64 `json:"interactive_p50_ms"`
	InteractiveP99Ms float64 `json:"interactive_p99_ms"`
	BulkP50Ms        float64 `json:"bulk_p50_ms"`
	BulkP99Ms        float64 `json:"bulk_p99_ms"`
	LocalRuns        int64   `json:"local_runs"`
	Steals           int64   `json:"steals"`
	Preemptions      int64   `json:"preemptions"`
}

// PreemptionResult is the interactive-tail A/B under a bulk flood.
type PreemptionResult struct {
	BulkFlood   int     `json:"bulk_flood"`
	Probes      int     `json:"interactive_probes"`
	OnP50Ms     float64 `json:"preempt_on_p50_ms"`
	OnP99Ms     float64 `json:"preempt_on_p99_ms"`
	OffP50Ms    float64 `json:"preempt_off_p50_ms"`
	OffP99Ms    float64 `json:"preempt_off_p99_ms"`
	Preemptions int64   `json:"preemptions"` // counted in the preempt-on run
}

// MemoResult is the result-cache phase: speedup, invalidation, identity.
type MemoResult struct {
	Variants     int     `json:"variants"`
	WarmRepeats  int     `json:"warm_repeats"`
	ColdMeanMs   float64 `json:"cold_mean_ms"`
	WarmMeanMs   float64 `json:"warm_mean_ms"`
	Speedup      float64 `json:"speedup"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	BitIdentical bool    `json:"bit_identical"` // every cached delivery vs uncached oracle
	// InvalidationMiss: the recalibration commit forced the next lookup to
	// miss; RewarmHit: the recomputed entry is warm again under the new
	// epoch.
	InvalidationMiss bool `json:"invalidation_miss"`
	RewarmHit        bool `json:"rewarm_hit"`
}

// HedgeRun is one arm of the wedged-interpreter A/B.
type HedgeRun struct {
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	HedgesLaunched int64   `json:"hedges_launched"`
	HedgesWon      int64   `json:"hedges_won"`
	HedgesLost     int64   `json:"hedges_lost"`
	Recoveries     int64   `json:"recoveries"`
}

// HedgeResult compares sojourn tails with one interpreter wedged.
type HedgeResult struct {
	Jobs        int      `json:"jobs"`
	WedgeHangMs float64  `json:"wedge_hang_ms"`
	Off         HedgeRun `json:"hedge_off"`
	On          HedgeRun `json:"hedge_on"`
}

// TablesScaleResult is the full experiment.
type TablesScaleResult struct {
	Users       int              `json:"users"`
	JobsPerUser int              `json:"jobs_per_user"`
	Sweep       []FarmPoint      `json:"sweep"`
	Preemption  PreemptionResult `json:"preemption"`
	Memo        MemoResult       `json:"memo"`
	Hedge       HedgeResult      `json:"hedge"`
}

// farmRig is the shared data tier of the experiment: one DM with a loaded
// telemetry unit; farms (frontend + managers) are rebuilt per phase.
type farmRig struct {
	dm      *dm.DM
	session *dm.Session
	unitLen float64
	cleanup func()
}

func newFarmRig(p TablesScaleParams) (*farmRig, error) {
	tmp, err := os.MkdirTemp("", "hedc-tablesscale")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*farmRig, error) {
		os.RemoveAll(tmp)
		return nil, err
	}
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		return fail(err)
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, tmp, 0)
	if err != nil {
		return fail(err)
	}
	d, err := dm.Open(dm.Options{
		MetaDB: db, DefaultArchive: "disk-0",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		return fail(err)
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		return fail(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		return fail(err)
	}
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 99, DayLength: p.DayLength, BackgroundRate: p.BackgroundRate, Flares: 1,
	})
	for _, u := range telemetry.SegmentDay(day, p.DayLength) {
		if _, err := d.LoadUnit(u); err != nil {
			return fail(err)
		}
	}
	sess, err := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	if err != nil {
		return fail(err)
	}
	return &farmRig{
		dm: d, session: sess, unitLen: p.DayLength,
		cleanup: func() { os.RemoveAll(tmp) },
	}, nil
}

// newFarm builds a fresh frontend over `managers` managers. Every farm
// starts in the measurement baseline — memoization off, hedging off,
// preemption on — and phases opt in to the mechanism they measure.
func (r *farmRig) newFarm(p TablesScaleParams, managers int) (*pl.Frontend, []*pl.Manager, error) {
	dir := pl.NewDirectory()
	mgrs := make([]*pl.Manager, 0, managers)
	for i := 0; i < managers; i++ {
		m, err := pl.NewManager(fmt.Sprintf("farm-%d", i), "server",
			p.ManagerServers, pl.Routines(), time.Minute)
		if err != nil {
			return nil, nil, err
		}
		dir.RegisterManager(m, "server")
		mgrs = append(mgrs, m)
	}
	fe := pl.NewFrontend(dir, managers*p.ManagerServers+2, p.MaxInSystem)
	for _, s := range pl.NewAnalysisStrategies(r.dm) {
		fe.RegisterStrategy(s)
	}
	fe.SetMemoize(false)
	fe.SetHedge(pl.HedgeConfig{})
	fe.SetPreemption(true)
	return fe, mgrs, nil
}

var farmAnaTypes = []string{schema.AnaHistogram, schema.AnaLightcurve, schema.AnaSpectrogram}

// randomJob draws one parameter-distinct analysis request.
func (r *farmRig) randomJob(rng *rand.Rand, id string, tier pl.Tier) *pl.Request {
	t0 := rng.Float64() * r.unitLen / 2
	return &pl.Request{
		ID: id, Type: farmAnaTypes[rng.Intn(len(farmAnaTypes))], Session: r.session,
		Params: map[string]interface{}{
			"tstart": t0, "tstop": t0 + 100 + rng.Float64()*r.unitLen/2,
			"time_bins":   16 + rng.Intn(64),
			"energy_bins": 8 + rng.Intn(16),
		},
		Tier: tier, NoCommit: true,
	}
}

// waitFarmJob submits, waits, and returns the sojourn (Submit call to
// terminal status, admission wait included) and the delivery.
func waitFarmJob(fe *pl.Frontend, req *pl.Request) (time.Duration, *pl.Delivery, error) {
	start := time.Now()
	tk, err := fe.Submit(req)
	if err != nil {
		return 0, nil, err
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		return 0, nil, err
	}
	return time.Since(start), tk.Delivery(), nil
}

// pctMs returns the q-quantile of the samples in milliseconds.
func pctMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return float64(s[idx]) / float64(time.Millisecond)
}

func durMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// sameDelivery compares two deliveries file by file, bit for bit.
func sameDelivery(a, b *pl.Delivery) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing delivery (%v vs %v)", a != nil, b != nil)
	}
	if len(a.Files) != len(b.Files) {
		return fmt.Errorf("file count %d != %d", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Suffix != b.Files[i].Suffix {
			return fmt.Errorf("file %d suffix %q != %q", i, a.Files[i].Suffix, b.Files[i].Suffix)
		}
		if !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			return fmt.Errorf("file %s differs (%d vs %d bytes)",
				a.Files[i].Suffix, len(a.Files[i].Data), len(b.Files[i].Data))
		}
	}
	return nil
}

// sweepPoint runs the mixed closed-loop load against one farm size.
func (r *farmRig) sweepPoint(p TablesScaleParams, managers int) (FarmPoint, error) {
	fe, _, err := r.newFarm(p, managers)
	if err != nil {
		return FarmPoint{}, err
	}
	defer fe.Close()

	var mu sync.Mutex
	var intLat, bulkLat []time.Duration
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for u := 0; u < p.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(1000*managers+u)))
			for j := 0; j < p.JobsPerUser; j++ {
				tier := pl.TierBulk
				if rng.Float64() < p.InteractiveShare {
					tier = pl.TierInteractive
				}
				id := fmt.Sprintf("sweep-%d-%d-%d", managers, u, j)
				d, _, err := waitFarmJob(fe, r.randomJob(rng, id, tier))
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else if tier == pl.TierInteractive {
					intLat = append(intLat, d)
				} else {
					bulkLat = append(bulkLat, d)
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return FarmPoint{}, firstErr
	}
	st := fe.FarmStats()
	jobs := len(intLat) + len(bulkLat)
	return FarmPoint{
		Managers: managers, Servers: managers * p.ManagerServers, Jobs: jobs,
		WallS: wall.Seconds(), JobsPerSec: float64(jobs) / wall.Seconds(),
		InteractiveP50Ms: pctMs(intLat, 0.5), InteractiveP99Ms: pctMs(intLat, 0.99),
		BulkP50Ms: pctMs(bulkLat, 0.5), BulkP99Ms: pctMs(bulkLat, 0.99),
		LocalRuns: st.Sched.LocalRuns, Steals: st.Sched.Steals,
		Preemptions: st.Sched.Preemptions,
	}, nil
}

// preemptionRun floods a one-manager farm with bulk work (more than the
// admission gate holds), then probes it with sequential interactive
// submissions. With preemption on, the reserved admission slice plus the
// tiered queues let every probe jump the flood; off, each probe waits its
// FIFO turn behind it.
func (r *farmRig) preemptionRun(p TablesScaleParams, preempt bool) (p50, p99 float64, preemptions int64, err error) {
	fe, _, err := r.newFarm(p, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	defer fe.Close()
	fe.SetPreemption(preempt)

	rng := rand.New(rand.NewSource(p.Seed + 7)) // same workload both arms
	// The flood is bulk reprocessing: full-range, fine-binned jobs heavy
	// enough that the queue outlasts the probe sequence.
	bulkReqs := make([]*pl.Request, p.BulkFlood)
	for i := range bulkReqs {
		bulkReqs[i] = &pl.Request{
			ID: fmt.Sprintf("flood-%t-%d", preempt, i), Type: schema.AnaSpectrogram,
			Session: r.session,
			Params: map[string]interface{}{
				"tstart": 0.0, "tstop": r.unitLen,
				"time_bins": 64, "energy_bins": 16 + i%4,
			},
			Tier: pl.TierBulk, NoCommit: true,
		}
	}
	probeReqs := make([]*pl.Request, p.InteractiveProbes)
	for i := range probeReqs {
		probeReqs[i] = r.randomJob(rng, fmt.Sprintf("probe-%t-%d", preempt, i), pl.TierInteractive)
	}

	// The flood submitter blocks at the admission gate once MaxInSystem
	// (minus any interactive reserve) is reached, so it runs aside.
	tks := make(chan *pl.Ticket, p.BulkFlood)
	floodErr := make(chan error, 1)
	go func() {
		for _, req := range bulkReqs {
			tk, err := fe.Submit(req)
			if err != nil {
				floodErr <- err
				return
			}
			tks <- tk
		}
		floodErr <- nil
	}()
	time.Sleep(100 * time.Millisecond) // let the flood fill the farm

	var lat []time.Duration
	for _, req := range probeReqs {
		d, _, err := waitFarmJob(fe, req)
		if err != nil {
			return 0, 0, 0, err
		}
		lat = append(lat, d)
	}
	if err := <-floodErr; err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i < p.BulkFlood; i++ {
		if _, err := (<-tks).Wait(context.Background()); err != nil {
			return 0, 0, 0, err
		}
	}
	st := fe.FarmStats()
	return pctMs(lat, 0.5), pctMs(lat, 0.99), st.Sched.Preemptions, nil
}

// memoPhase measures the result cache: cold vs warm latency over canned
// re-analyses, bit-identity of every cached delivery against an uncached
// (NoMemo) oracle, and the recalibration-commit invalidation.
func (r *farmRig) memoPhase(p TablesScaleParams) (MemoResult, error) {
	fe, _, err := r.newFarm(p, 1)
	if err != nil {
		return MemoResult{}, err
	}
	defer fe.Close()
	fe.SetMemoize(true)

	// Canned re-analyses: full-range, fine-binned — the repeated
	// "re-derive the standard product" jobs memoization exists for.
	req := func(v int, id string, noMemo bool) *pl.Request {
		return &pl.Request{
			ID: id, Type: farmAnaTypes[v%len(farmAnaTypes)], Session: r.session,
			Params: map[string]interface{}{
				"tstart": 0.0, "tstop": r.unitLen,
				"time_bins": 48 + 16*v, "energy_bins": 16,
			},
			NoCommit: true, NoMemo: noMemo,
		}
	}

	var cold, warm []time.Duration
	oracle := make([]*pl.Delivery, p.CannedVariants)
	for v := 0; v < p.CannedVariants; v++ {
		d, _, err := waitFarmJob(fe, req(v, fmt.Sprintf("cold-%d", v), false))
		if err != nil {
			return MemoResult{}, err
		}
		cold = append(cold, d)
		// The oracle recomputes with the cache bypassed in both directions.
		if _, oracle[v], err = waitFarmJob(fe, req(v, fmt.Sprintf("oracle-%d", v), true)); err != nil {
			return MemoResult{}, err
		}
	}
	for i := 0; i < p.WarmRepeats; i++ {
		v := i % p.CannedVariants
		d, del, err := waitFarmJob(fe, req(v, fmt.Sprintf("warm-%d", i), false))
		if err != nil {
			return MemoResult{}, err
		}
		if err := sameDelivery(del, oracle[v]); err != nil {
			return MemoResult{}, fmt.Errorf("cached delivery drifted from oracle (variant %d): %w", v, err)
		}
		warm = append(warm, d)
	}

	// Invalidation: a recalibration commits to raw_units, bumping the data
	// epoch. The next lookup must miss; the recomputation must still match
	// the pre-bump bytes (recalibration rewrites no photon data).
	units, err := r.dm.UnitsInRange(0, r.unitLen)
	if err != nil || len(units) == 0 {
		return MemoResult{}, fmt.Errorf("units in range: %v (%d)", err, len(units))
	}
	before := fe.FarmStats().Memo
	if _, err := r.dm.Recalibrate(units[0].UnitID, "bench epoch bump"); err != nil {
		return MemoResult{}, err
	}
	_, del, err := waitFarmJob(fe, req(0, "post-bump", false))
	if err != nil {
		return MemoResult{}, err
	}
	after := fe.FarmStats().Memo
	if err := sameDelivery(del, oracle[0]); err != nil {
		return MemoResult{}, fmt.Errorf("post-recalibration recompute drifted: %w", err)
	}
	if _, _, err := waitFarmJob(fe, req(0, "rewarm", false)); err != nil {
		return MemoResult{}, err
	}
	final := fe.FarmStats().Memo

	coldMean, warmMean := durMean(cold), durMean(warm)
	res := MemoResult{
		Variants: p.CannedVariants, WarmRepeats: p.WarmRepeats,
		ColdMeanMs: float64(coldMean) / float64(time.Millisecond),
		WarmMeanMs: float64(warmMean) / float64(time.Millisecond),
		Hits:       final.Hits, Misses: final.Misses,
		BitIdentical:     true, // a drift returned an error above
		InvalidationMiss: after.Misses > before.Misses && after.Hits == before.Hits,
		RewarmHit:        final.Hits == after.Hits+1,
	}
	if warmMean > 0 {
		res.Speedup = float64(coldMean) / float64(warmMean)
	}
	return res, nil
}

// hedgeRun measures the sojourn tail with one interpreter wedged. A
// re-arming injector keeps the interpreter stalling WedgeHang on every
// invocation; the manager's FIFO idle pool alternates servers, so roughly
// every other sequential job lands on the wedged one.
func (r *farmRig) hedgeRun(p TablesScaleParams, hedgeOn bool) (HedgeRun, error) {
	fe, mgrs, err := r.newFarm(p, 1)
	if err != nil {
		return HedgeRun{}, err
	}
	defer fe.Close()
	if hedgeOn {
		fe.SetHedge(pl.HedgeConfig{
			Enabled: true, Multiplier: 3, Min: p.HedgeMin, Max: p.HedgeMax,
		})
	}

	ids := mgrs[0].ServerIDs()
	wedged := mgrs[0].Server(ids[0])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // InjectHang arms one invocation; keep it armed
		defer wg.Done()
		for {
			wedged.InjectHang(p.WedgeHang)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	rng := rand.New(rand.NewSource(p.Seed + 13))
	var lat []time.Duration
	for i := 0; i < p.HedgeJobs; i++ {
		d, _, err := waitFarmJob(fe,
			r.randomJob(rng, fmt.Sprintf("hedge-%t-%d", hedgeOn, i), pl.TierInteractive))
		if err != nil {
			close(stop)
			wg.Wait()
			return HedgeRun{}, err
		}
		lat = append(lat, d)
	}
	close(stop)
	wg.Wait()

	st := fe.FarmStats()
	run := HedgeRun{
		P50Ms: pctMs(lat, 0.5), P99Ms: pctMs(lat, 0.99),
		HedgesLaunched: st.Sched.HedgesLaunched,
		HedgesWon:      st.Sched.HedgesWon,
		HedgesLost:     st.Sched.HedgesLost,
	}
	for _, m := range st.Managers {
		run.Recoveries += m.Recoveries
	}
	return run, nil
}

// RunTablesScale measures the whole experiment. Zero-valued params fall
// back to the defaults field by field, so callers can shrink only what
// they need (the smoke test runs a miniature of everything).
func RunTablesScale(p TablesScaleParams, logf func(string, ...interface{})) (*TablesScaleResult, error) {
	def := DefaultTablesScaleParams()
	if p.Users <= 0 {
		p.Users = def.Users
	}
	if p.JobsPerUser <= 0 {
		p.JobsPerUser = def.JobsPerUser
	}
	if p.InteractiveShare <= 0 {
		p.InteractiveShare = def.InteractiveShare
	}
	if len(p.FarmSizes) == 0 {
		p.FarmSizes = def.FarmSizes
	}
	if p.ManagerServers <= 0 {
		p.ManagerServers = def.ManagerServers
	}
	if p.MaxInSystem <= 0 {
		p.MaxInSystem = def.MaxInSystem
	}
	if p.BulkFlood <= 0 {
		p.BulkFlood = def.BulkFlood
	}
	if p.InteractiveProbes <= 0 {
		p.InteractiveProbes = def.InteractiveProbes
	}
	if p.CannedVariants <= 0 {
		p.CannedVariants = def.CannedVariants
	}
	if p.WarmRepeats <= 0 {
		p.WarmRepeats = def.WarmRepeats
	}
	if p.HedgeJobs <= 0 {
		p.HedgeJobs = def.HedgeJobs
	}
	if p.WedgeHang <= 0 {
		p.WedgeHang = def.WedgeHang
	}
	if p.HedgeMin <= 0 {
		p.HedgeMin = def.HedgeMin
	}
	if p.HedgeMax <= 0 {
		p.HedgeMax = def.HedgeMax
	}
	if p.DayLength <= 0 {
		p.DayLength = def.DayLength
	}
	if p.BackgroundRate <= 0 {
		p.BackgroundRate = def.BackgroundRate
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	rig, err := newFarmRig(p)
	if err != nil {
		return nil, err
	}
	defer rig.cleanup()

	res := &TablesScaleResult{Users: p.Users, JobsPerUser: p.JobsPerUser}

	for _, size := range p.FarmSizes {
		pt, err := rig.sweepPoint(p, size)
		if err != nil {
			return nil, fmt.Errorf("sweep %d managers: %w", size, err)
		}
		logf("bench: tablesscale sweep managers=%d jobs/s=%.1f int p99=%.1fms steals=%d",
			size, pt.JobsPerSec, pt.InteractiveP99Ms, pt.Steals)
		res.Sweep = append(res.Sweep, pt)
	}

	onP50, onP99, preemptions, err := rig.preemptionRun(p, true)
	if err != nil {
		return nil, fmt.Errorf("preemption on: %w", err)
	}
	offP50, offP99, _, err := rig.preemptionRun(p, false)
	if err != nil {
		return nil, fmt.Errorf("preemption off: %w", err)
	}
	res.Preemption = PreemptionResult{
		BulkFlood: p.BulkFlood, Probes: p.InteractiveProbes,
		OnP50Ms: onP50, OnP99Ms: onP99,
		OffP50Ms: offP50, OffP99Ms: offP99,
		Preemptions: preemptions,
	}
	logf("bench: tablesscale preemption int p99 on=%.1fms off=%.1fms", onP99, offP99)

	memo, err := rig.memoPhase(p)
	if err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	res.Memo = memo
	logf("bench: tablesscale memo cold=%.2fms warm=%.3fms speedup=%.0fx",
		memo.ColdMeanMs, memo.WarmMeanMs, memo.Speedup)

	off, err := rig.hedgeRun(p, false)
	if err != nil {
		return nil, fmt.Errorf("hedge off: %w", err)
	}
	on, err := rig.hedgeRun(p, true)
	if err != nil {
		return nil, fmt.Errorf("hedge on: %w", err)
	}
	res.Hedge = HedgeResult{
		Jobs:        p.HedgeJobs,
		WedgeHangMs: float64(p.WedgeHang) / float64(time.Millisecond),
		Off:         off, On: on,
	}
	logf("bench: tablesscale hedge p99 off=%.1fms on=%.1fms won=%d", off.P99Ms, on.P99Ms, on.HedgesWon)
	return res, nil
}

// FormatTablesScale renders the experiment for the console.
func FormatTablesScale(r *TablesScaleResult) string {
	s := fmt.Sprintf("Tables at scale — processing farm, %d users x %d mixed jobs\n",
		r.Users, r.JobsPerUser)
	s += fmt.Sprintf("%9s %8s %8s %12s %12s %12s %12s %7s %8s\n",
		"managers", "servers", "jobs/s", "int p50[ms]", "int p99[ms]",
		"bulk p50", "bulk p99", "steals", "preempt")
	for _, pt := range r.Sweep {
		s += fmt.Sprintf("%9d %8d %8.1f %12.1f %12.1f %12.1f %12.1f %7d %8d\n",
			pt.Managers, pt.Servers, pt.JobsPerSec,
			pt.InteractiveP50Ms, pt.InteractiveP99Ms,
			pt.BulkP50Ms, pt.BulkP99Ms, pt.Steals, pt.Preemptions)
	}
	p := r.Preemption
	s += fmt.Sprintf("preemption A/B (%d bulk flood, %d probes): interactive p99 %.1f ms on vs %.1f ms off (p50 %.1f vs %.1f, %d preemptions)\n",
		p.BulkFlood, p.Probes, p.OnP99Ms, p.OffP99Ms, p.OnP50Ms, p.OffP50Ms, p.Preemptions)
	m := r.Memo
	s += fmt.Sprintf("memoization: cold %.2f ms -> warm %.3f ms (%.0fx), %d hits / %d misses, bit-identical=%t, epoch bump invalidates=%t, rewarm=%t\n",
		m.ColdMeanMs, m.WarmMeanMs, m.Speedup, m.Hits, m.Misses,
		m.BitIdentical, m.InvalidationMiss, m.RewarmHit)
	h := r.Hedge
	s += fmt.Sprintf("speculation (one interpreter wedged %.0f ms): p99 %.1f ms off -> %.1f ms hedged (p50 %.1f -> %.1f; %d hedges won, %d lost, %d recoveries)\n",
		h.WedgeHangMs, h.Off.P99Ms, h.On.P99Ms, h.Off.P50Ms, h.On.P50Ms,
		h.On.HedgesWon, h.On.HedgesLost, h.On.Recoveries)
	return s
}
