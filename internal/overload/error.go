// Package overload implements adaptive overload control for every tier
// of the repository: a latency-gradient concurrency limiter (AIMD on the
// drift between a window's p99 and the baseline p50, in the style of
// Netflix's concurrency-limits), a CoDel-style adaptive queue timeout
// that sheds from a standing queue instead of letting it grow, and a
// degrade switch with hysteresis that trades result freshness for
// goodput under sustained pressure.
//
// The package is a leaf: it imports only the standard library, so the
// wire tier (dbnet), the middle tier (dm, cluster) and the processing
// farm (pl) can all share one typed error and one limiter without
// import cycles. The paper's "moving target" is the workload itself —
// a public repository must survive demand spikes (flare alerts, press
// releases) that dwarf steady state, and the one defense that never
// works is an unbounded queue.
package overload

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is the sentinel every shed matches via errors.Is: the
// tier is saturated and queueing longer would only grow the backlog.
// Sheds are returned as *Error values carrying a retry-after hint;
// errors.Is(err, ErrOverloaded) keeps working for every caller that
// only wants the classification.
var ErrOverloaded = errors.New("overload: request shed")

// Error is a typed overload shed. The RetryAfter hint is the earliest
// instant a retry has a chance: retrying sooner is guaranteed wasted
// work and is exactly the retry-storm amplification that turns a spike
// into an outage. Honor it.
type Error struct {
	// RetryAfter is how long the caller should wait before retrying.
	RetryAfter time.Duration
	// Tier names the layer that shed ("gateway", "db", "farm", ...).
	Tier string
}

func (e *Error) Error() string {
	tier := e.Tier
	if tier == "" {
		tier = "tier"
	}
	return fmt.Sprintf("overload: %s shed request, retry after %v", tier, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match every typed shed.
func (e *Error) Is(target error) bool { return target == ErrOverloaded }

// Overloaded is the structural marker upper layers test for without
// importing this package.
func (e *Error) Overloaded() bool { return true }

// RetryAfterHint exposes the hint structurally (same pattern as the
// DBUnavailable / Degraded markers elsewhere in the tree).
func (e *Error) RetryAfterHint() time.Duration { return e.RetryAfter }

// IsOverload reports whether err is (or wraps) an overload shed from
// any tier.
func IsOverload(err error) bool {
	var o interface{ Overloaded() bool }
	return errors.As(err, &o) && o.Overloaded()
}

// RetryAfterOf extracts the retry-after hint from an overload shed.
// ok is false when err is not an overload error; a zero hint with
// ok=true means "shed, but the tier offered no estimate".
func RetryAfterOf(err error) (time.Duration, bool) {
	var h interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &h) {
		return h.RetryAfterHint(), true
	}
	return 0, false
}
