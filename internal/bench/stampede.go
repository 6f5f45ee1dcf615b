package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
)

// Flare-alert stampede A/B: the same open-loop 10x browse spike driven
// against the same live cell under the two admission disciplines — the
// fixed cap (the gateway limiter pinned at Min = Max, no degrade switch)
// with naive-retry clients, and the adaptive limiter + degrade switch
// with hint-honoring clients.
// The record is goodput through the spike, split into fresh answers and
// answers from the stale cache, the interactive tail, the retry
// discipline, and how fast the cell stands back down afterwards.

// StampedeSide is one policy's measurement across the schedules.
type StampedeSide struct {
	Policy string                  `json:"policy"`
	Runs   []*chaos.StampedeResult `json:"runs"`

	// Aggregates over the plain spike10x schedule (the comparable one).
	GoodputRPS       float64 `json:"goodput_rps"`
	GoodFraction     float64 `json:"good_fraction"`
	GoodFresh        int     `json:"good_fresh"`
	GoodDegraded     int     `json:"good_degraded"`
	InteractiveP50Ms float64 `json:"interactive_p50_ms"`
	InteractiveP99Ms float64 `json:"interactive_p99_ms"`
	Retries          int64   `json:"retries"`
	PrematureRetries int64   `json:"premature_retries"`
	RecoverMs        float64 `json:"recover_ms"`
	BaselineP99Ms    float64 `json:"baseline_p99_ms"`
	DegradedAtPeak   bool    `json:"degraded_at_peak"`
	SwitchFlips      int64   `json:"switch_flips"`
}

// StampedeResult is the whole experiment.
type StampedeResult struct {
	Fixed    *StampedeSide `json:"fixed"`
	Adaptive *StampedeSide `json:"adaptive"`

	GoodputRatio float64 `json:"goodput_ratio"` // adaptive / fixed
	TotalElapsed float64 `json:"total_elapsed_s"`
}

func runStampedeSide(adaptive bool, scheds []chaos.StampedeSchedule, logf func(string, ...any)) (*StampedeSide, error) {
	side := &StampedeSide{Policy: map[bool]string{true: "adaptive", false: "fixed"}[adaptive]}
	for _, s := range scheds {
		logf("stampede: %s/%s", s.Name, side.Policy)
		r, err := chaos.RunStampede(s, chaos.StampedeConfig{Adaptive: adaptive})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", s.Name, side.Policy, err)
		}
		side.Runs = append(side.Runs, r)
		if s.Name == "spike10x" {
			side.GoodputRPS = r.GoodputRPS
			side.GoodFraction = r.GoodFraction()
			side.GoodFresh, side.GoodDegraded = r.GoodFresh, r.GoodDegraded
			side.InteractiveP50Ms = float64(r.InteractiveP50) / float64(time.Millisecond)
			side.InteractiveP99Ms = float64(r.InteractiveP99) / float64(time.Millisecond)
			side.Retries = r.Retries
			side.PrematureRetries = r.PrematureRetries
			side.RecoverMs = float64(r.RecoverTime) / float64(time.Millisecond)
			side.BaselineP99Ms = float64(r.BaselineP99) / float64(time.Millisecond)
			side.DegradedAtPeak, side.SwitchFlips = r.DegradedAtPeak, r.SwitchFlips
		}
	}
	return side, nil
}

// RunStampede executes the A/B: the fixed baseline runs the plain spike
// (its collapse looks the same on every schedule, and the naive-retry
// pile-up makes it the slowest run), the adaptive side runs every
// enumerated schedule.
func RunStampede(logf func(string, ...any)) (*StampedeResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	all := chaos.StampedeSchedules()
	plain := all[:1]

	fixed, err := runStampedeSide(false, plain, logf)
	if err != nil {
		return nil, err
	}
	adaptive, err := runStampedeSide(true, all, logf)
	if err != nil {
		return nil, err
	}
	res := &StampedeResult{Fixed: fixed, Adaptive: adaptive, TotalElapsed: time.Since(start).Seconds()}
	if fixed.GoodputRPS > 0 {
		res.GoodputRatio = adaptive.GoodputRPS / fixed.GoodputRPS
	}
	return res, nil
}

// FormatStampede renders the experiment in the repo's table style.
func FormatStampede(r *StampedeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stampede — 10x flare-alert spike, fixed vs adaptive admission\n")
	fmt.Fprintf(&b, "  %-22s %12s %12s\n", "", "fixed", "adaptive")
	row := func(label, fixed, adaptive string) {
		fmt.Fprintf(&b, "  %-22s %12s %12s\n", label, fixed, adaptive)
	}
	row("goodput (req/s)", fmt.Sprintf("%.1f", r.Fixed.GoodputRPS), fmt.Sprintf("%.1f", r.Adaptive.GoodputRPS))
	row("answered within SLO", fmt.Sprintf("%.0f%%", 100*r.Fixed.GoodFraction), fmt.Sprintf("%.0f%%", 100*r.Adaptive.GoodFraction))
	row("...fresh", fmt.Sprint(r.Fixed.GoodFresh), fmt.Sprint(r.Adaptive.GoodFresh))
	row("...from the stale cache", fmt.Sprint(r.Fixed.GoodDegraded), fmt.Sprint(r.Adaptive.GoodDegraded))
	row("interactive p50 (ms)", fmt.Sprintf("%.0f", r.Fixed.InteractiveP50Ms), fmt.Sprintf("%.0f", r.Adaptive.InteractiveP50Ms))
	row("interactive p99 (ms)", fmt.Sprintf("%.0f", r.Fixed.InteractiveP99Ms), fmt.Sprintf("%.0f", r.Adaptive.InteractiveP99Ms))
	row("retries", fmt.Sprint(r.Fixed.Retries), fmt.Sprint(r.Adaptive.Retries))
	row("...before the hint", fmt.Sprint(r.Fixed.PrematureRetries), fmt.Sprint(r.Adaptive.PrematureRetries))
	row("degrading at peak", fmt.Sprint(r.Fixed.DegradedAtPeak), fmt.Sprint(r.Adaptive.DegradedAtPeak))
	row("degrade switch flips", fmt.Sprint(r.Fixed.SwitchFlips), fmt.Sprint(r.Adaptive.SwitchFlips))
	row("recovery (ms)", fmt.Sprintf("%.0f", r.Fixed.RecoverMs), fmt.Sprintf("%.0f", r.Adaptive.RecoverMs))
	row("post-spike p99 (ms)", fmt.Sprintf("%.0f", r.Fixed.BaselineP99Ms), fmt.Sprintf("%.0f", r.Adaptive.BaselineP99Ms))
	fmt.Fprintf(&b, "  goodput ratio (adaptive/fixed): %.1fx\n", r.GoodputRatio)
	for _, run := range r.Adaptive.Runs {
		fmt.Fprintf(&b, "  adaptive %-20s goodput %.1f/s, interactive p99 %.0f ms, recovered in %.0f ms\n",
			run.Schedule+":", run.GoodputRPS,
			float64(run.InteractiveP99)/float64(time.Millisecond),
			float64(run.RecoverTime)/float64(time.Millisecond))
	}
	return b.String()
}
