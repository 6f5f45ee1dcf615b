package chaos

import (
	"testing"
	"time"

	"repro/internal/overload"
)

// shortStampede trims the phases for the short -race smoke lane: one
// second of spike is enough to prove the contract holds, not enough to
// measure a pretty A/B (the bench does that).
func shortStampede(cfg *StampedeConfig) {
	cfg.warm = 300 * time.Millisecond
	cfg.Spike = time.Second
	cfg.Recover = 600 * time.Millisecond
}

// TestStampedeSchedules pins the enumeration: the three scenarios the
// overload work is specified against.
func TestStampedeSchedules(t *testing.T) {
	scheds := StampedeSchedules()
	if len(scheds) < 3 {
		t.Fatalf("only %d stampede schedules, want >= 3", len(scheds))
	}
	seen := make(map[string]bool)
	var slow, recov bool
	for _, s := range scheds {
		if seen[s.Name] {
			t.Fatalf("duplicate schedule %s", s.Name)
		}
		seen[s.Name] = true
		slow = slow || s.SlowReplica
		recov = recov || s.RecoveryFocus
	}
	if !slow || !recov {
		t.Fatalf("schedule matrix missing a scenario: slowReplica=%v recoveryFocus=%v", slow, recov)
	}
}

// TestStampedeAdaptive is the stampede contract under the adaptive
// policy, per schedule: every failure typed, a goodput floor through
// the spike, interactive p99 bounded, zero retries fired before a
// hinted interval elapsed, and the ladder stood down afterwards.
func TestStampedeAdaptive(t *testing.T) {
	scheds := StampedeSchedules()
	if testing.Short() {
		scheds = scheds[:1] // the plain 10x spike is the smoke schedule
	}
	for _, s := range scheds {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg := StampedeConfig{Adaptive: true}
			if testing.Short() {
				shortStampede(&cfg)
			}
			res, err := RunStampede(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Arrivals == 0 {
				t.Fatal("spike phase issued no requests")
			}
			// Goodput floor: the cell must keep answering through the
			// crowd — at least the interactive class's worth of work per
			// second, served live or commit-behind.
			if res.GoodputRPS < 8 {
				t.Fatalf("goodput collapsed to %.1f req/s under the spike", res.GoodputRPS)
			}
			// Bounded interactive tail: scientists stay interactive while
			// the crowd is shed.
			if res.InteractiveP99 > 2*time.Second {
				t.Fatalf("interactive p99 = %v under the spike, want <= 2s", res.InteractiveP99)
			}
			// Hint discipline: no client fired a retry into a tier before
			// the tier's own retry-after elapsed.
			if res.PrematureRetries != 0 {
				t.Fatalf("%d retries fired before the hinted interval", res.PrematureRetries)
			}
			// Recovery: ladder down, baseline tail back.
			if res.RecoveredStage != overload.StageNormal.String() {
				t.Fatalf("post-spike stage = %s, want normal", res.RecoveredStage)
			}
			if res.BaselineP99 > time.Second {
				t.Fatalf("post-spike baseline p99 = %v, want <= 1s", res.BaselineP99)
			}
			t.Logf("%s/%s: %d arrivals, %d served + %d degraded + %d shed (goodput %.1f/s), interactive p50/p99 %v/%v, db refusals %d, stale serves %d, max stage %s, recovered in %v (baseline p99 %v)",
				res.Schedule, res.Policy, res.Arrivals, res.Served, res.Degraded, res.Shed,
				res.GoodputRPS, res.InteractiveP50.Round(time.Millisecond),
				res.InteractiveP99.Round(time.Millisecond), res.DBRefusals, res.StaleServes,
				res.MaxStage, res.RecoverTime.Round(time.Millisecond),
				res.BaselineP99.Round(time.Millisecond))
		})
	}
}

// TestStampedeFixedStaysTyped runs the fixed-policy baseline once: the
// old configuration is allowed to be slow and to retry naively — the
// A/B in the bench quantifies how much — but even it must fail typed
// and never hang. Skipped in -short: the naive client's pile-up makes
// it the slowest run of the suite.
func TestStampedeFixedStaysTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-policy baseline is bench material; smoke lane covers adaptive")
	}
	res, err := RunStampede(StampedeSchedule{Name: "spike10x"}, StampedeConfig{Adaptive: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 {
		t.Fatal("spike phase issued no requests")
	}
	t.Logf("fixed baseline: %d arrivals, %d served (goodput %.1f/s), interactive p99 %v, %d retries (%d premature)",
		res.Arrivals, res.Served, res.GoodputRPS,
		res.InteractiveP99.Round(time.Millisecond), res.Retries, res.PrematureRetries)
}
