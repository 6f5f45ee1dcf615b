package overload

import (
	"cmp"
	"sync"
	"time"
)

// Degrade switch: while on, the gateway answers overload-shed anonymous
// reads from its stale cache. Off, it arms at pressure 0.30 and disarms
// at 0.10; armed, it turns on at 0.55; on, it turns off at 0.25 unless
// 0.80 holds it on until 0.45; at most one move per dwell. Arming and
// holding keep the brownout ladder's timing: it never turns on earlier.
const degradeArm, degradeDisarm, degradeEnter, degradeExit, degradeHold, degradeRelease = 0.30, 0.10, 0.55, 0.25, 0.80, 0.45

// SwitchConfig tunes the degrade switch: its one knob is Dwell (default 500ms).
type SwitchConfig struct{ Dwell time.Duration }

// Switch is the degrade switch; each reader feeds it a pressure sample.
type Switch struct {
	dwell           time.Duration
	mu              sync.Mutex
	armed, on, held bool
	moved, seen     time.Time // last move; last sample
	flips           int64
}

// NewSwitch builds an off switch.
func NewSwitch(cfg SwitchConfig) *Switch {
	return &Switch{dwell: cmp.Or(cfg.Dwell, 500*time.Millisecond)}
}

// Observe feeds the pressure sampled at now; it reports on and flips.
func (s *Switch) Observe(now time.Time, pressure float64) (on bool, flips int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := [3]bool{s.armed, s.on, s.held}
	switch {
	case now.Sub(s.seen) > s.dwell && s.armed: // unsampled, pressure may have fallen and risen
		s.armed, s.on, s.held = false, false, false
	case now.Sub(s.moved) < s.dwell:
	case s.held:
		s.held = pressure > degradeRelease
	case s.on:
		s.on, s.held = pressure > degradeExit, pressure >= degradeHold
	case s.armed:
		s.on, s.armed = pressure >= degradeEnter, pressure > degradeDisarm
	default:
		s.armed = pressure >= degradeArm
	}
	s.seen = now
	if was != [3]bool{s.armed, s.on, s.held} {
		s.moved = now
		if s.on != was[1] {
			s.flips++
		}
	}
	return s.on, s.flips
}
