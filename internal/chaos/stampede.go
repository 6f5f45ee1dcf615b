// Flare-alert stampede harness. The paper's load model is a quiet
// archive that occasionally catches fire: a gamma-ray burst alert goes
// out and the anonymous browse rate multiplies within seconds while the
// scientists who were already working expect their sessions to stay
// interactive. This file drives that scenario open-loop — arrivals keep
// coming at the scheduled rate whether or not earlier requests have
// finished, the regime where a closed-loop benchmark lies — against a
// live cell, under either admission policy:
//
//   - Fixed: the gateway's limiter pinned at one cap (Min = Max, so it
//     never moves, and no degrade switch), no database queue bound,
//     fronted by naive clients that retry every shed after a fixed
//     short pause.
//   - Adaptive: the latency-gradient limiter + degrade switch, a
//     queue-bounded database tier that refuses doomed work at the
//     socket, and well-behaved clients that honor retry-after hints.
//
// The harness asserts the stampede contract rather than raw throughput:
// every failure is typed, no request outlives the hard wall, a goodput
// floor holds through the spike, interactive p99 stays bounded, clients
// never retried into a tier before its hint elapsed, and after the
// crowd leaves the degrade switch turns off and the cell serves at
// baseline again.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dbnet"
	"repro/internal/fault"
	"repro/internal/overload"
)

// StampedeSchedule is one stampede scenario.
type StampedeSchedule struct {
	// Name identifies the schedule in subtests and JSON.
	Name string
	// SlowReplica wraps replica-0's HTTP hop in an injected-latency rig
	// for the duration of the spike: the stampede arrives while half the
	// serving capacity is limping.
	SlowReplica bool
	// RecoveryFocus shortens the spike and stretches the recovery phase;
	// the schedule exists to prove the degrade switch turns OFF.
	RecoveryFocus bool
}

// StampedeSchedules enumerates the scenarios: the plain 10x spike, the
// spike landing on a cell with one slow replica, and the post-spike
// recovery.
func StampedeSchedules() []StampedeSchedule {
	return []StampedeSchedule{
		{Name: "spike10x"},
		{Name: "spike-slow-replica", SlowReplica: true},
		{Name: "post-spike-recovery", RecoveryFocus: true},
	}
}

// StampedeConfig tunes a run.
type StampedeConfig struct {
	// Adaptive selects the admission policy (the A/B axis): false is the
	// pinned-limiter + naive-retry baseline, true is the breathing
	// limiter + degrade switch + hint-honoring stack.
	Adaptive bool
	// Spike and Recover are phase durations (defaults 2s and 1.5s;
	// RecoveryFocus schedules override both).
	Spike, Recover time.Duration
	// warm is the first phase's duration (default 600ms).
	warm time.Duration
}

const (
	// interactiveRPS is the authenticated scientists' arrival rate,
	// constant through every phase.
	interactiveRPS = 8
	// browseRPS is the anonymous crowd's baseline rate; the spike
	// multiplies it by spikeFactor.
	browseRPS   = 40
	spikeFactor = 10
	// stampedeSLO is the goodput bound: a request answered within it of
	// its arrival counts as good.
	stampedeSLO = 2 * time.Second
)

func (c *StampedeConfig) defaults(s StampedeSchedule) {
	if c.warm <= 0 {
		c.warm = 600 * time.Millisecond
	}
	if c.Spike <= 0 {
		c.Spike = 2 * time.Second
	}
	if c.Recover <= 0 {
		c.Recover = 1500 * time.Millisecond
	}
	if s.RecoveryFocus {
		c.Spike = c.Spike / 2
		c.Recover = c.Recover * 2
	}
}

// StampedeResult is one run's record. Latency percentiles and goodput
// are measured over requests that ARRIVED during the spike phase — the
// only phase where the two policies can differ.
type StampedeResult struct {
	Schedule string `json:"schedule"`
	Policy   string `json:"policy"` // "fixed" or "adaptive"

	Arrivals int `json:"arrivals"` // spike-phase arrivals, both classes
	Served   int `json:"served"`   // answered live, at any latency
	Degraded int `json:"degraded"` // answered from the stale cache, tagged, at any latency
	Good     int `json:"good"`     // Served or Degraded within stampedeSLO of arrival
	Shed     int `json:"shed"`     // typed overload after client retry policy
	TypedErr int `json:"typed_errors"`

	// GoodFresh and GoodDegraded split Good into live answers and
	// answers from the stale cache.
	GoodFresh    int `json:"good_fresh"`
	GoodDegraded int `json:"good_degraded"`

	GoodputRPS       float64       `json:"goodput_rps"` // Good / spike seconds
	InteractiveP99   time.Duration `json:"interactive_p99_ns"`
	InteractiveP50   time.Duration `json:"interactive_p50_ns"`
	BrowseP99        time.Duration `json:"browse_p99_ns"`
	Retries          int64         `json:"retries"`
	PrematureRetries int64         `json:"premature_retries"` // fired before the hint elapsed
	DBRefusals       int64         `json:"db_refusals"`       // statusOverload frames from the DB tier

	DegradedAtPeak bool  `json:"degraded_at_peak"` // degrade switch on as the spike ended
	SwitchFlips    int64 `json:"switch_flips"`

	// Recovery: measured after the crowd leaves.
	DegradedAfter bool          `json:"degraded_after"`  // degrade switch on after the probe round
	RecoverTime   time.Duration `json:"recover_time_ns"` // spike end -> switch off + clean round
	BaselineP99   time.Duration `json:"baseline_p99_ns"` // post-recovery probe p99
}

// Goodput fraction of spike arrivals answered within the SLO.
func (r *StampedeResult) GoodFraction() float64 {
	if r.Arrivals == 0 {
		return 1
	}
	return float64(r.Good) / float64(r.Arrivals)
}

// Harness bounds. The stampede wall is looser than the fault-matrix
// reqDeadline: a naive fixed-mode client may legitimately burn several
// HTTP timeouts before giving up, and the harness only insists that
// nothing hangs past the wall.
const (
	stampedeWall        = 8 * time.Second
	stampedeHTTPTimeout = time.Second
	stampedeMaxTries    = 3
	naiveRetryPause     = 10 * time.Millisecond
	recoverWall         = 6 * time.Second
	probeCount          = 20
)

// startStampedeCell builds the deployment: one queue-bounded shared
// database, two replicas, a gateway under the selected policy. The
// replica capacity model is the Figure 4 node (2 workers, thrash past
// the knee) scaled so the 10x browse spike lands well past aggregate
// capacity — the regime the policies must be told apart in.
func startStampedeCell(s StampedeSchedule, cfg StampedeConfig) (*cell, error) {
	rig := fault.NewNet()
	rig.Delay = 120 * time.Millisecond

	srv := dbnet.Options{MaxOpsPerSec: 400}
	gopts := cluster.GatewayOptions{
		HealthInterval:   25 * time.Millisecond,
		RetryBackoff:     2 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	}
	if cfg.Adaptive {
		// The adaptive stack bounds the database queue: work whose
		// projected wait exceeds the bound is refused at the socket with
		// a retry-after hint instead of rotting in line.
		srv.MaxQueueDelay = 50 * time.Millisecond
		gopts.Admission = &overload.Config{
			Initial: 24, Min: 4, Max: 64,
			MaxWait:       100 * time.Millisecond,
			QueueInterval: 100 * time.Millisecond,
		}
		gopts.Degrade = &overload.SwitchConfig{Dwell: 200 * time.Millisecond}
	} else {
		// A generous fixed cap: the limiter pinned at Min = Max, with
		// no degrade switch, so sheds never turn into stale answers.
		gopts.Admission = &overload.Config{Initial: 64, Min: 64, Max: 64}
	}
	o := cluster.CellOptions{
		Replicas: 2,
		Gateway:  gopts,
		Capacity: cluster.Capacity{
			Workers: 2, CPUPerCall: 20 * time.Millisecond,
			ThrashThreshold: 6, ThrashFactor: 0.2,
		},
		Client: dbnet.ClientOptions{
			DialTimeout: 300 * time.Millisecond,
			CallTimeout: 500 * time.Millisecond,
		},
		HTTPTimeout: stampedeHTTPTimeout,
	}
	if s.SlowReplica {
		o.Transport = rigReplica0(rig)
	}
	return startCell(rig, 1, srv, o)
}

// recorder collects per-class latencies for requests that arrived
// during the spike, and the outcome tallies.
type recorder struct {
	mu          sync.Mutex
	interactive []time.Duration
	browse      []time.Duration

	arrivals atomic.Int64
	served   atomic.Int64
	degraded atomic.Int64
	good     atomic.Int64 // served or degraded within stampedeSLO
	goodDeg  atomic.Int64 // the degraded part of good
	shed     atomic.Int64
	typed    atomic.Int64

	retries   atomic.Int64
	premature atomic.Int64

	violation atomic.Pointer[string]
}

func (r *recorder) fail(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	r.violation.CompareAndSwap(nil, &s)
}

func (r *recorder) record(interactive bool, d time.Duration) {
	r.mu.Lock()
	if interactive {
		r.interactive = append(r.interactive, d)
	} else {
		r.browse = append(r.browse, d)
	}
	r.mu.Unlock()
}

func pctile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// request runs one arrival to completion under the client retry policy.
// inSpike marks arrivals whose outcome scores the spike phase.
func (c *cell) request(rec *recorder, cfg StampedeConfig, interactive, inSpike bool, seq int) {
	start := time.Now()
	if inSpike {
		rec.arrivals.Add(1)
	}
	do := func() error {
		if interactive {
			_, err := c.GW.CountHLEs(c.token, c.ip, filterFor(seq))
			return err
		}
		_, err := c.GW.QueryHLEs("", c.ip, filterFor(seq))
		return err
	}
	var err error
	for try := 1; ; try++ {
		err = do()
		if err == nil || cluster.IsDegraded(err) {
			break
		}
		ra, hinted := overload.RetryAfterOf(err)
		if !hinted || try >= stampedeMaxTries {
			break
		}
		// Client retry policy — the half of the A/B that lives outside
		// the cell. A well-behaved client sleeps the hinted interval; a
		// naive one hammers back after a fixed pause, the retry storm
		// the hint exists to prevent.
		pause := ra
		if !cfg.Adaptive {
			pause = naiveRetryPause
			if pause < ra {
				rec.premature.Add(1)
			}
		}
		rec.retries.Add(1)
		time.Sleep(pause)
		if time.Since(start) > stampedeSLO {
			// Past the SLO the answer is worthless either way; one more
			// try at most keeps naive clients from looping forever.
			try = stampedeMaxTries
		}
	}
	wall := time.Since(start)
	if wall > stampedeWall {
		rec.fail("%s request hung %v, past the %v wall (err=%v)",
			map[bool]string{true: "interactive", false: "browse"}[interactive], wall, stampedeWall, err)
		return
	}
	if inSpike {
		rec.score(interactive, wall, err)
	}
}

// score tallies one spike-phase outcome. Every answer, live or degraded,
// counts as served or degraded; only one whose wall time is within
// stampedeSLO also counts as good, the numerator of goodput.
func (r *recorder) score(interactive bool, wall time.Duration, err error) {
	o := outcome(err)
	switch o {
	case "ok":
		r.served.Add(1)
	case "degraded":
		r.degraded.Add(1)
	case "typed":
		if overload.IsOverload(err) {
			r.shed.Add(1)
		} else {
			r.typed.Add(1)
		}
		// A fast typed refusal is the design working; it still scores
		// the latency distribution (the client got its answer).
		r.record(interactive, wall)
		return
	default:
		r.fail("error outside the failure model: %v", err)
		return
	}
	if wall <= stampedeSLO {
		r.good.Add(1)
		if o == "degraded" {
			r.goodDeg.Add(1)
		}
	}
	r.record(interactive, wall)
}

// generate runs one arrival class open-loop for d at rate rps: arrivals
// are spawned on a 10ms metronome regardless of completions.
func (c *cell) generate(rec *recorder, cfg StampedeConfig, interactive, inSpike bool, rps float64, d time.Duration, wg *sync.WaitGroup) {
	const tick = 10 * time.Millisecond
	perTick := rps * tick.Seconds()
	end := time.Now().Add(d)
	var carry float64
	var seq int
	for time.Now().Before(end) {
		carry += perTick
		for ; carry >= 1; carry-- {
			seq++
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				c.request(rec, cfg, interactive, inSpike, n)
			}(seq)
		}
		time.Sleep(tick)
	}
}

// RunStampede executes one schedule under one policy and checks the
// harness invariants (typed failures, bounded wall). The policy-level
// assertions — goodput floor, p99 bound, zero premature retries,
// recovery — belong to the caller: the chaos test asserts them for the
// adaptive policy, the bench records both sides of the A/B.
func RunStampede(s StampedeSchedule, cfg StampedeConfig) (*StampedeResult, error) {
	cfg.defaults(s)
	c, err := startStampedeCell(s, cfg)
	if err != nil {
		return nil, fmt.Errorf("stampede cell: %w", err)
	}
	defer c.close()

	// Warm: session, caches, baseline load.
	if err := c.auth(); err != nil {
		return nil, fmt.Errorf("auth: %w", err)
	}
	for i := 0; i < 8; i++ {
		if err := c.query(i); err != nil {
			return nil, fmt.Errorf("warm query %d: %w", i, err)
		}
	}

	rec := &recorder{}

	var wg sync.WaitGroup
	phase := func(inSpike bool, crowdRPS float64, d time.Duration) {
		var pw sync.WaitGroup
		pw.Add(2)
		go func() { defer pw.Done(); c.generate(rec, cfg, true, inSpike, interactiveRPS, d, &wg) }()
		go func() { defer pw.Done(); c.generate(rec, cfg, false, inSpike, crowdRPS, d, &wg) }()
		pw.Wait()
	}

	phase(false, browseRPS, cfg.warm)

	if s.SlowReplica {
		c.rig.SetFault(c.rig.OpCount()+1, fault.NetLatency)
	}
	db0 := c.Srvs[0].OverloadRefusals()
	phase(true, browseRPS*spikeFactor, cfg.Spike)
	spikeEnd := time.Now()
	atPeak := c.GW.Status().Overload.Degrading
	if s.SlowReplica {
		c.rig.ClearFault()
	}

	// Recovery phase: the crowd leaves, baseline load continues.
	phase(false, browseRPS, cfg.Recover)
	wg.Wait()
	if v := rec.violation.Load(); v != nil {
		return nil, fmt.Errorf("invariant violated: %s", *v)
	}

	res := &StampedeResult{
		Schedule:         s.Name,
		Policy:           map[bool]string{true: "adaptive", false: "fixed"}[cfg.Adaptive],
		Arrivals:         int(rec.arrivals.Load()),
		Served:           int(rec.served.Load()),
		Degraded:         int(rec.degraded.Load()),
		Good:             int(rec.good.Load()),
		GoodDegraded:     int(rec.goodDeg.Load()),
		Shed:             int(rec.shed.Load()),
		TypedErr:         int(rec.typed.Load()),
		Retries:          rec.retries.Load(),
		PrematureRetries: rec.premature.Load(),
		DBRefusals:       int64(c.Srvs[0].OverloadRefusals() - db0),
		DegradedAtPeak:   atPeak,
	}
	res.GoodFresh = res.Good - res.GoodDegraded
	rec.mu.Lock()
	res.InteractiveP99 = pctile(rec.interactive, 0.99)
	res.InteractiveP50 = pctile(rec.interactive, 0.50)
	res.BrowseP99 = pctile(rec.browse, 0.99)
	rec.mu.Unlock()
	res.GoodputRPS = float64(res.Good) / cfg.Spike.Seconds()

	// Recovery: wait for the degrade switch to turn off (each Status
	// call feeds it the decaying pressure), then probe a quiet baseline
	// round and score its tail.
	deadline := time.Now().Add(recoverWall)
	for c.GW.Status().Overload.Degrading {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("degrade switch still on %v after the spike", recoverWall)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var probes []time.Duration
	for i := 0; i < probeCount; i++ {
		t0 := time.Now()
		if _, err := c.GW.CountHLEs(c.token, c.ip, filterFor(i)); err != nil {
			if time.Now().Before(deadline) {
				i-- // breaker cooldowns may still be draining; retry the probe
				time.Sleep(25 * time.Millisecond)
				continue
			}
			return res, fmt.Errorf("post-spike probe %d still failing: %w", i, err)
		}
		probes = append(probes, time.Since(t0))
	}
	ov := c.GW.Status().Overload
	res.DegradedAfter, res.SwitchFlips = ov.Degrading, ov.Flips
	res.RecoverTime = time.Since(spikeEnd) - cfg.Recover // probe time beyond the scripted phase
	if res.RecoverTime < 0 {
		res.RecoverTime = 0
	}
	res.BaselineP99 = pctile(probes, 0.99)
	return res, nil
}
