// Lake chaos: concurrency-fault schedules for the journal-backed archive.
// Where chaos.go breaks the wires between tiers, this file breaks the
// *timing* inside the archive tier: background compaction, GC, pin churn,
// deletes, offline flips and disk faults all race live ingest against one
// commit journal. Each schedule runs a set of concurrent actors over a
// fault-injecting filesystem and asserts the lake's contract:
//
//  1. No lost containers: every acknowledged store reads back
//     bit-identically after the storm, and every acknowledged delete
//     stays deleted — no matter what compaction and GC rewrote meanwhile.
//  2. Pinned views are frozen: a time-travel view opened before the churn
//     serves the exact original bytes throughout and at the end.
//  3. Typed failures only: while a fault window is open (offline, ENOSPC,
//     crash) operations may fail, but only with the expected sentinel
//     errors; anything else is a harness violation.
//  4. Post-heal convergence: after the fault clears (including a crash +
//     journal replay), the lake serves a fully clean round — store, read,
//     compact, GC and a structural Verify — within the convergence
//     deadline.

package chaos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/fault"
	"repro/internal/lake"
)

// lakeSchedule names one storm: which actors run alongside the always-on
// ingest loop, and which disk fault (if any) opens mid-run.
type lakeSchedule struct {
	ID string

	Compact    bool // background compaction loop
	GC         bool // background GC loop (horizon chases head)
	Pins       bool // pin/verify/unpin churn
	Deletes    bool // delete acknowledged files while compaction runs
	Offline    bool // flip the archive offline/online
	TimeTravel bool // one long-lived pinned view read continuously

	ENOSPC bool // open an out-of-space window mid-run, then heal
	Crash  bool // crash the filesystem mid-run, then recover + reopen
}

// lakeSchedules enumerates the ten storms.
func lakeSchedules() []lakeSchedule {
	return []lakeSchedule{
		{ID: "compact-vs-ingest", Compact: true},
		{ID: "gc-vs-ingest", GC: true},
		{ID: "compact-gc-vs-ingest", Compact: true, GC: true},
		{ID: "pin-churn-vs-gc", Pins: true, GC: true},
		{ID: "delete-churn-vs-compact", Deletes: true, Compact: true},
		{ID: "offline-flip-vs-ingest", Offline: true, Compact: true},
		{ID: "enospc-vs-compact", Compact: true, GC: true, ENOSPC: true},
		{ID: "crash-mid-compact", Compact: true, GC: true, Crash: true},
		{ID: "timetravel-vs-compact", TimeTravel: true, Compact: true, GC: true},
		{ID: "mixed-storm", Compact: true, GC: true, Pins: true, Deletes: true,
			TimeTravel: true, Offline: true},
	}
}

// lakeResult is one storm's accounting.
type lakeResult struct {
	Schedule lakeSchedule

	Stores       int // acknowledged stores
	StoreErrs    int // tolerated (typed) store failures
	Deleted      int // acknowledged deletes
	Compactions  int // compaction rounds that merged something
	GCRuns       int // GC rounds that advanced or swept
	PinCycles    int // pin/verify/unpin cycles completed
	AsOfReads    int // reads served by the long-lived pinned view
	OfflineFlips int
	Tolerated    int // total typed errors observed during the storm

	Crashed   bool          // the armed crash fired (Crash schedules)
	Converged time.Duration // heal → first fully clean round
}

// lakeTolerated classifies an actor error: true for the typed failures a
// fault window is allowed to cause, false for everything outside the
// failure model.
func lakeTolerated(err error) bool {
	switch {
	case errors.Is(err, fault.ErrNoSpace), errors.Is(err, fault.ErrCrashed):
		return true
	case errors.Is(err, archive.ErrOffline), errors.Is(err, archive.ErrFull):
		return true
	}
	return false
}

// lakeCell is one storm's shared state.
type lakeCell struct {
	fs   *fault.FS
	arch *archive.Archive

	mu      sync.Mutex
	acked   map[string][]byte // rel -> payload, recorded only on ack
	order   []string          // ack order, the delete actor's queue
	deleted map[string]bool   // rel -> delete was acknowledged
	seq     int
	tol     int
	viol    error // first invariant violation, sticky
}

func (c *lakeCell) fail(format string, args ...any) {
	c.mu.Lock()
	if c.viol == nil {
		c.viol = fmt.Errorf(format, args...)
	}
	c.mu.Unlock()
}

func (c *lakeCell) violation() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viol
}

// tolerate folds an actor error into the result under invariant 3: typed
// errors count, anything else is a violation.
func (c *lakeCell) tolerate(who string, err error) {
	if lakeTolerated(err) {
		c.mu.Lock()
		c.tol++
		c.mu.Unlock()
		return
	}
	c.fail("%s: error outside the failure model: %v", who, err)
}

// lakePayload is the deterministic content oracle: rel + a filler whose
// length varies so containers mix sizes.
func lakePayload(seq int) (string, []byte) {
	rel := fmt.Sprintf("d%02d/u%05d", seq%8, seq)
	data := []byte(fmt.Sprintf("chaos-lake %s |", rel))
	for len(data) < 128+(seq%11)*97 {
		data = append(data, byte('a'+seq%26))
	}
	return rel, data
}

// store pushes one unique file through the archive surface, recording the
// payload only when the store is acknowledged.
func (c *lakeCell) store() {
	c.mu.Lock()
	c.seq++
	seq := c.seq
	c.mu.Unlock()
	rel, data := lakePayload(seq)
	if err := c.arch.Store(rel, data); err != nil {
		c.tolerate("store", err)
		return
	}
	c.mu.Lock()
	c.acked[rel] = data
	c.order = append(c.order, rel)
	c.mu.Unlock()
}

// popAcked takes the oldest acknowledged, undeleted rel off the queue (the
// delete actor's victim), or "".
func (c *lakeCell) popAcked() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.order) == 0 {
		return ""
	}
	rel := c.order[0]
	c.order = c.order[1:]
	return rel
}

// lakeCompactOpts keeps every container a merge candidate so compaction
// churns continuously.
func lakeCompactOpts() lake.CompactOptions {
	return lake.CompactOptions{SmallBytes: 1 << 20, DeadFraction: 0.2, MinMerge: 2, MaxMerge: 32}
}

// runLake executes one storm and checks every invariant. The returned
// error is a violated invariant (or a harness failure); the Result is the
// churn record for schedules that pass.
func runLake(s lakeSchedule, cfg Config) (*lakeResult, error) {
	const lakeDir = "lakedir"
	window := 250 * time.Millisecond
	if cfg.minFaultTime > window {
		window = cfg.minFaultTime
	}

	c := &lakeCell{
		fs:      fault.NewFS(),
		acked:   make(map[string][]byte),
		deleted: make(map[string]bool),
	}
	var err error
	c.arch, err = archive.NewLakeVFS(c.fs, "lake-0", archive.Disk, lakeDir, 0)
	if err != nil {
		return nil, fmt.Errorf("cell: %w", err)
	}
	lk := c.arch.Lake()
	res := &lakeResult{Schedule: s}

	// Warm: a served baseline the pin actors can snapshot.
	for i := 0; i < 12; i++ {
		c.store()
	}
	if len(c.acked) != 12 {
		return nil, fmt.Errorf("warm: only %d/12 stores acknowledged", len(c.acked))
	}

	// The long-lived time-travel view pins the warm catalog and snapshots
	// it before any churn begins (invariant 2's oracle).
	var ttView *lake.View
	ttWant := make(map[string][]byte)
	if s.TimeTravel {
		ttView, err = lk.OpenAt(0)
		if err != nil {
			return nil, fmt.Errorf("time-travel pin: %w", err)
		}
		for _, rel := range ttView.List() {
			data, err := ttView.Read(rel)
			if err != nil {
				return nil, fmt.Errorf("time-travel snapshot %s: %w", rel, err)
			}
			ttWant[rel] = data
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	actor := func(name string, every time.Duration, fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fn()
				time.Sleep(every)
			}
		}()
		_ = name
	}

	actor("ingest", time.Millisecond, c.store)
	if s.Compact {
		actor("compact", 3*time.Millisecond, func() {
			cr, err := lk.Compact(lakeCompactOpts())
			if err != nil {
				c.tolerate("compact", err)
				return
			}
			if cr.Merged > 0 {
				c.mu.Lock()
				res.Compactions++
				c.mu.Unlock()
			}
		})
	}
	if s.GC {
		actor("gc", 5*time.Millisecond, func() {
			gr, err := lk.GC(lk.Head())
			if err != nil {
				c.tolerate("gc", err)
				return
			}
			if gr.Deleted > 0 || gr.Seq != 0 {
				c.mu.Lock()
				res.GCRuns++
				c.mu.Unlock()
			}
		})
	}
	if s.Pins {
		actor("pins", 2*time.Millisecond, func() {
			v, err := lk.OpenAt(0)
			if err != nil {
				c.tolerate("pin open", err)
				return
			}
			defer v.Close()
			rels := v.List()
			if len(rels) == 0 {
				return
			}
			// Snapshot a handful of members, let the churn run a beat,
			// then require bit-identical re-reads through the pin.
			n := len(rels)
			if n > 4 {
				n = 4
			}
			snap := make(map[string][]byte, n)
			for _, rel := range rels[:n] {
				data, err := v.Read(rel)
				if err != nil {
					c.tolerate("pin read", err)
					return
				}
				snap[rel] = data
			}
			time.Sleep(2 * time.Millisecond)
			for rel, want := range snap {
				got, err := v.Read(rel)
				if err != nil {
					if lakeTolerated(err) {
						return
					}
					c.fail("pinned member %s unreadable under churn: %v", rel, err)
					return
				}
				if string(got) != string(want) {
					c.fail("pinned member %s mutated under churn", rel)
					return
				}
			}
			c.mu.Lock()
			res.PinCycles++
			c.mu.Unlock()
		})
	}
	if s.Deletes {
		actor("delete", 4*time.Millisecond, func() {
			rel := c.popAcked()
			if rel == "" {
				return
			}
			if err := c.arch.Remove(rel); err != nil {
				c.tolerate("delete", err)
				return
			}
			c.mu.Lock()
			c.deleted[rel] = true
			res.Deleted++
			c.mu.Unlock()
		})
	}
	if s.Offline {
		actor("offline", 12*time.Millisecond, func() {
			c.arch.SetOnline(false)
			time.Sleep(6 * time.Millisecond)
			c.arch.SetOnline(true)
			c.mu.Lock()
			res.OfflineFlips++
			c.mu.Unlock()
		})
	}
	if s.TimeTravel {
		actor("timetravel", time.Millisecond, func() {
			for rel, want := range ttWant {
				got, err := ttView.Read(rel)
				if err != nil {
					if lakeTolerated(err) {
						return
					}
					c.fail("time-travel member %s unreadable: %v", rel, err)
					return
				}
				if string(got) != string(want) {
					c.fail("time-travel member %s mutated", rel)
					return
				}
				c.mu.Lock()
				res.AsOfReads++
				c.mu.Unlock()
			}
		})
	}

	// Fault phase: let the storm build, open the window, let it rage,
	// heal, and give the actors a post-heal beat before stopping them.
	third := window / 3
	time.Sleep(third)
	switch {
	case s.ENOSPC:
		c.fs.SetFault(c.fs.OpCount()+1, fault.ModeENOSPC)
		time.Sleep(third)
		c.fs.ClearFault()
		time.Sleep(third)
	case s.Crash:
		c.fs.SetFault(c.fs.OpCount()+7, fault.ModeCrash)
		deadline := time.Now().Add(2 * time.Second)
		for !c.fs.Crashed() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if !c.fs.Crashed() {
			close(stop)
			wg.Wait()
			return res, fmt.Errorf("armed crash never fired (%d fs ops)", c.fs.OpCount())
		}
		time.Sleep(third) // actors observe the dead disk; errors must stay typed
	default:
		time.Sleep(2 * third)
	}
	close(stop)
	wg.Wait()

	// Heal. A crash needs the full recovery path: settle the disk image,
	// then reopen the archive so the journal replays.
	c.arch.SetOnline(true)
	c.fs.ClearFault()
	if c.fs.Crashed() {
		res.Crashed = true
		c.fs.Recover()
		c.arch, err = archive.NewLakeVFS(c.fs, "lake-0", archive.Disk, lakeDir, 0)
		if err != nil {
			return res, fmt.Errorf("reopen after crash: %w", err)
		}
		lk = c.arch.Lake()
	}

	c.mu.Lock()
	res.Stores = len(c.acked)
	res.StoreErrs = c.tol
	res.Tolerated = c.tol
	c.mu.Unlock()
	if err := c.violation(); err != nil {
		return res, err
	}
	if (s.ENOSPC || s.Offline || s.Crash) && res.Tolerated == 0 {
		return res, fmt.Errorf("fault window caused no typed errors — the schedule tested nothing")
	}

	// Invariant 1: every acknowledged store reads back bit-identically;
	// every acknowledged delete stays deleted.
	for rel, want := range c.acked {
		if c.deleted[rel] {
			if _, err := lk.Read(rel); !errors.Is(err, lake.ErrNotFound) {
				return res, fmt.Errorf("acknowledged delete of %s was resurrected", rel)
			}
			continue
		}
		got, err := lk.Read(rel)
		if err != nil {
			return res, fmt.Errorf("acknowledged store %s lost: %v", rel, err)
		}
		if string(got) != string(want) {
			return res, fmt.Errorf("acknowledged store %s diverged (%d vs %d bytes)", rel, len(got), len(want))
		}
	}

	// Invariant 2's closing sweep: the long-lived view still serves the
	// warm snapshot. (No schedule combines TimeTravel with Crash: the
	// in-process view handle dies with the simulated process. Durable-pin
	// resurrection after a crash is internal/torture's territory.)
	if s.TimeTravel {
		if res.Crashed {
			return res, fmt.Errorf("schedule combines TimeTravel with Crash — unsupported")
		}
		for rel, want := range ttWant {
			got, err := ttView.Read(rel)
			if err != nil {
				return res, fmt.Errorf("time-travel member %s lost after heal: %v", rel, err)
			}
			if string(got) != string(want) {
				return res, fmt.Errorf("time-travel member %s diverged after heal", rel)
			}
		}
		if err := ttView.Close(); err != nil {
			return res, fmt.Errorf("time-travel close: %v", err)
		}
	}

	// Invariant 4: a fully clean round within the convergence deadline —
	// store, read, compact, GC, and a structural verify.
	healed := time.Now()
	deadline := healed.Add(convergeDeadline)
	var last error
	for time.Now().Before(deadline) {
		last = func() error {
			c.mu.Lock()
			c.seq++
			seq := c.seq
			c.mu.Unlock()
			rel, data := lakePayload(seq)
			if err := c.arch.Store(rel, data); err != nil {
				return fmt.Errorf("probe store: %w", err)
			}
			got, err := lk.Read(rel)
			if err != nil || string(got) != string(data) {
				return fmt.Errorf("probe read: %d bytes, %v", len(got), err)
			}
			if _, err := lk.Compact(lakeCompactOpts()); err != nil {
				return fmt.Errorf("probe compact: %w", err)
			}
			if _, err := lk.GC(lk.Head()); err != nil {
				return fmt.Errorf("probe gc: %w", err)
			}
			if probs := lk.Verify(); len(probs) > 0 {
				return fmt.Errorf("verify: %v", probs)
			}
			return nil
		}()
		if last == nil {
			res.Converged = time.Since(healed)
			return res, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return res, fmt.Errorf("lake did not converge within %v after heal: %v", convergeDeadline, last)
}

// TestLakeScheduleMatrix pins the storm enumeration: ten distinct named
// schedules, each exercising a different actor mix.
func TestLakeScheduleMatrix(t *testing.T) {
	scheds := lakeSchedules()
	if len(scheds) != 10 {
		t.Fatalf("%d lake schedules enumerated, want 10", len(scheds))
	}
	seen := make(map[string]bool)
	for _, s := range scheds {
		if s.ID == "" {
			t.Fatal("schedule with empty ID")
		}
		if seen[s.ID] {
			t.Fatalf("duplicate schedule %s", s.ID)
		}
		seen[s.ID] = true
		if s.TimeTravel && s.Crash {
			t.Fatalf("schedule %s combines TimeTravel with Crash", s.ID)
		}
	}
}

// TestLakeChaosEnumeration runs every storm: concurrent actors churn one
// commit journal while ingest keeps landing, and every lake invariant —
// acked stores bit-identical, pinned views frozen, typed failures only,
// post-heal convergence — must hold.
func TestLakeChaosEnumeration(t *testing.T) {
	cfg := chaosConfig(t)
	for _, s := range lakeSchedules() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			res, err := runLake(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stores < 20 {
				t.Fatalf("only %d stores acknowledged — the storm barely ran", res.Stores)
			}
			if s.Compact && res.Compactions == 0 {
				t.Fatal("compaction actor never merged anything")
			}
			if s.Pins && res.PinCycles == 0 {
				t.Fatal("pin actor completed no cycles")
			}
			if s.TimeTravel && res.AsOfReads == 0 {
				t.Fatal("time-travel actor served no reads")
			}
			if s.Offline && res.OfflineFlips == 0 {
				t.Fatal("offline actor never flipped")
			}
			if s.Crash && !res.Crashed {
				t.Fatal("crash schedule did not crash")
			}
			t.Logf("%d stores (%d typed errs), %d deletes, %d compactions, %d gc runs, %d pin cycles, %d as-of reads, %d flips; converged in %v",
				res.Stores, res.StoreErrs, res.Deleted, res.Compactions,
				res.GCRuns, res.PinCycles, res.AsOfReads, res.OfflineFlips,
				res.Converged.Round(time.Millisecond))
		})
	}
}
