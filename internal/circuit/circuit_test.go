package circuit

import (
	"testing"
	"time"
)

// The cool-down is an hour and "elapses" by moving openedAt back, so no
// case waits on the wall clock.
const testCooldown = time.Hour

func TestBreakerTransitions(t *testing.T) {
	type step struct {
		op    string // acquire | success | failure | reset | cooldown
		admit bool   // acquire: the expected answer
		state string // Snapshot's state name after the step
		opens int64  // lifetime open transitions after the step
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"closed admits, failures below the threshold keep it closed", []step{
			{op: "acquire", admit: true, state: "closed"},
			{op: "failure", state: "closed"},
			{op: "failure", state: "closed"},
			{op: "acquire", admit: true, state: "closed"},
		}},
		{"a success between failures restarts the count", []step{
			{op: "failure", state: "closed"},
			{op: "failure", state: "closed"},
			{op: "success", state: "closed"},
			{op: "failure", state: "closed"},
			{op: "failure", state: "closed"},
			{op: "acquire", admit: true, state: "closed"},
		}},
		{"opens at the threshold and refuses during the cool-down", []step{
			{op: "failure", state: "closed"},
			{op: "failure", state: "closed"},
			{op: "failure", state: "open", opens: 1},
			{op: "acquire", admit: false, state: "open", opens: 1},
			{op: "failure", state: "open", opens: 1}, // a straggler does not re-open
		}},
		{"half-open after the cool-down admits exactly one probe", []step{
			{op: "failure"}, {op: "failure"}, {op: "failure", state: "open", opens: 1},
			{op: "cooldown", state: "half-open", opens: 1},
			{op: "acquire", admit: true, state: "half-open", opens: 1},
			{op: "acquire", admit: false, state: "half-open", opens: 1},
			{op: "acquire", admit: false, state: "half-open", opens: 1},
		}},
		{"a successful probe closes the circuit", []step{
			{op: "failure"}, {op: "failure"}, {op: "failure", state: "open", opens: 1},
			{op: "cooldown", state: "half-open", opens: 1},
			{op: "acquire", admit: true, state: "half-open", opens: 1},
			{op: "success", state: "closed", opens: 1},
			{op: "acquire", admit: true, state: "closed", opens: 1},
			{op: "failure", state: "closed", opens: 1}, // and the count starts over
		}},
		{"a failed probe re-opens for a full cool-down", []step{
			{op: "failure"}, {op: "failure"}, {op: "failure", state: "open", opens: 1},
			{op: "cooldown", state: "half-open", opens: 1},
			{op: "acquire", admit: true, state: "half-open", opens: 1},
			{op: "failure", state: "open", opens: 2},
			{op: "acquire", admit: false, state: "open", opens: 2},
			{op: "cooldown", state: "half-open", opens: 2},
			{op: "acquire", admit: true, state: "half-open", opens: 2},
		}},
		{"reset closes an open circuit outright", []step{
			{op: "failure"}, {op: "failure"}, {op: "failure", state: "open", opens: 1},
			{op: "reset", state: "closed", opens: 1},
			{op: "acquire", admit: true, state: "closed", opens: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(3, testCooldown)
			for i, s := range tc.steps {
				switch s.op {
				case "acquire":
					// Available is the same answer without taking the slot.
					if got := b.Available(); got != s.admit {
						t.Fatalf("step %d: Available = %v, want %v", i, got, s.admit)
					}
					if got := b.TryAcquire(); got != s.admit {
						t.Fatalf("step %d: TryAcquire = %v, want %v", i, got, s.admit)
					}
				case "success":
					b.Success()
				case "failure":
					b.Failure()
				case "reset":
					b.Reset()
				case "cooldown":
					b.mu.Lock()
					b.openedAt = b.openedAt.Add(-testCooldown)
					b.mu.Unlock()
				}
				if s.state == "" {
					continue
				}
				if state, _, opens := b.Snapshot(); state != s.state || opens != s.opens {
					t.Fatalf("step %d (%s): state %s opens %d, want %s %d", i, s.op, state, opens, s.state, s.opens)
				}
			}
		})
	}
}

func TestBreakerSnapshotCountsConsecutiveFailures(t *testing.T) {
	b := New(5, testCooldown)
	b.Failure()
	b.Failure()
	if _, fails, _ := b.Snapshot(); fails != 2 {
		t.Fatalf("fails = %d, want 2", fails)
	}
	b.Success()
	if _, fails, _ := b.Snapshot(); fails != 0 {
		t.Fatalf("fails after a success = %d, want 0", fails)
	}
}
