package overload

import (
	"sync"
	"time"
)

// Brownout ladder: under sustained pressure the system degrades result
// quality one deliberate step at a time instead of degrading latency
// for everyone. Hysteresis (enter thresholds above exit thresholds, plus
// a dwell time between transitions) keeps the ladder from flapping on a
// noisy pressure signal. The gateway is the one consumer: from
// StageStaleReads up it answers overload-shed anonymous reads from its
// stale cache (Gateway.canDegrade). The other rungs act on nothing; they
// stay because the climb through them sets when that switch turns on
// and off.

// Stage is one rung of the brownout ladder.
type Stage int32

const (
	// StageNormal: full service.
	StageNormal Stage = iota
	// StageNoHedge: the first pressure level (Enter[1]). No deployment
	// acts on it; it is a step the ladder climbs through.
	StageNoHedge
	// StageStaleReads: the gateway degrades overload-shed anonymous reads
	// to tagged answers from its stale cache instead of failing them.
	// Slightly old answers beat shed requests; the archive is
	// append-mostly, so stale is wrong only in what it omits.
	StageStaleReads
	// StageShedBulk: the deepest pressure level (Enter[3]). No
	// deployment acts on it beyond what StageStaleReads already does.
	StageShedBulk
)

func (s Stage) String() string {
	switch s {
	case StageNormal:
		return "normal"
	case StageNoHedge:
		return "no-hedge"
	case StageStaleReads:
		return "stale-reads"
	case StageShedBulk:
		return "shed-bulk"
	}
	return "unknown"
}

// LadderConfig tunes the hysteresis ladder. Enter[i] is the pressure at
// which stage i engages; Exit[i] the pressure below which it releases.
// Enter must exceed Exit per stage or the ladder oscillates.
type LadderConfig struct {
	Enter [4]float64
	Exit  [4]float64
	// Dwell is the minimum time between transitions — pressure must hold
	// across at least one full dwell to move another rung (default 500ms).
	Dwell time.Duration
}

// DefaultLadderConfig returns the production thresholds.
func DefaultLadderConfig() LadderConfig {
	return LadderConfig{
		Enter: [4]float64{0, 0.30, 0.55, 0.80},
		Exit:  [4]float64{0, 0.10, 0.25, 0.45},
		Dwell: 500 * time.Millisecond,
	}
}

// Ladder tracks the current brownout stage from a pressure signal.
type Ladder struct {
	cfg LadderConfig

	mu          sync.Mutex
	stage       Stage
	lastChange  time.Time
	transitions int64
}

// NewLadder builds a ladder; nil cfg takes DefaultLadderConfig.
func NewLadder(cfg *LadderConfig) *Ladder {
	c := DefaultLadderConfig()
	if cfg != nil {
		c = *cfg
		def := DefaultLadderConfig()
		if c.Dwell <= 0 {
			c.Dwell = def.Dwell
		}
		if c.Enter == [4]float64{} {
			// All-zero enter thresholds would climb a rung per dwell on any
			// nonzero pressure: an unset matrix takes the defaults.
			c.Enter = def.Enter
		}
		if c.Exit == [4]float64{} {
			c.Exit = def.Exit
		}
	}
	return &Ladder{cfg: c}
}

// Observe feeds one pressure sample and returns the (possibly moved)
// stage. The ladder moves at most one rung per dwell interval, in
// either direction.
func (b *Ladder) Observe(now time.Time, pressure float64) Stage {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.lastChange.IsZero() && now.Sub(b.lastChange) < b.cfg.Dwell {
		return b.stage
	}
	switch {
	case b.stage < StageShedBulk && pressure >= b.cfg.Enter[b.stage+1]:
		b.stage++
		b.lastChange = now
		b.transitions++
	case b.stage > StageNormal && pressure <= b.cfg.Exit[b.stage]:
		b.stage--
		b.lastChange = now
		b.transitions++
	}
	return b.stage
}

// Stage returns the current rung without observing.
func (b *Ladder) Stage() Stage {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stage
}

// Transitions counts rung changes (for /stats and tests).
func (b *Ladder) Transitions() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transitions
}
