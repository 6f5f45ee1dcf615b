package chaos

import (
	"os"
	"testing"
	"time"
)

// chaosConfig reads the CHAOSTIME knob: a duration floor for each
// schedule's fault phase (`CHAOSTIME=2s make chaos` holds every fault for
// at least two seconds of workload). Unset means the fast scripted rounds.
func chaosConfig(t *testing.T) Config {
	cfg := Config{}
	if v := os.Getenv("CHAOSTIME"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("CHAOSTIME=%q: %v", v, err)
		}
		cfg.minFaultTime = d
	}
	return cfg
}

// scheduleSets are the two enumerated matrices with their floors: the
// single-database hops and the sharded cell's shard-1 hop.
var scheduleSets = []struct {
	name    string
	scheds  func() []Schedule
	floor   int
	sharded bool
}{
	{"db+http", Schedules, 50, false},
	{"shard", func() []Schedule { return schedulesOn(HopShard) }, 30, true},
}

// TestScheduleMatrix pins the enumeration floors: at least 50 distinct
// single-database schedules and 30 sharded ones, the latter all on the
// shard-1 hop.
func TestScheduleMatrix(t *testing.T) {
	seen := make(map[string]bool)
	for _, set := range scheduleSets {
		scheds := set.scheds()
		if len(scheds) < set.floor {
			t.Fatalf("%s: only %d fault schedules enumerated, want >= %d", set.name, len(scheds), set.floor)
		}
		for _, s := range scheds {
			if (s.Hop == HopShard) != set.sharded {
				t.Fatalf("%s: schedule %s is on the wrong hop", set.name, s.Name())
			}
			if seen[s.Name()] {
				t.Fatalf("duplicate schedule %s", s.Name())
			}
			seen[s.Name()] = true
		}
		t.Logf("%s: %d distinct fault schedules", set.name, len(scheds))
	}
}

// TestChaosEnumeration is the tentpole: every schedule of both matrices
// runs the scripted workload against a live cell with its hop rigged to
// fail, and every invariant — bounded latency, no duplicate effects,
// typed failures only, convergence after heal, and on the sharded cell
// healthy-shard point reads live throughout — must hold.
func TestChaosEnumeration(t *testing.T) {
	cfg := chaosConfig(t)
	for _, set := range scheduleSets {
		for _, s := range set.scheds() {
			// -short keeps one schedule per (hop, mode) pair: the race
			// lane stays fast while still exercising every fault flavor.
			if testing.Short() && s.At != 5 {
				continue
			}
			t.Run(s.Name(), func(t *testing.T) {
				t.Parallel()
				res, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Requests == 0 {
					t.Fatal("fault phase issued no requests")
				}
				if set.sharded && res.HealthyOK == 0 {
					t.Fatal("no healthy-shard reads were exercised")
				}
				t.Logf("%d requests: %d ok (%d healthy-shard) %d degraded %d typed; slowest %v; converged in %v; availability %.2f",
					res.Requests, res.OK, res.HealthyOK, res.Degraded, res.TypedErr,
					res.MaxWall.Round(time.Millisecond), res.Converged.Round(time.Millisecond),
					res.Available())
			})
		}
	}
}
