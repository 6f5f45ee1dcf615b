package torture

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/lake"
)

// Lake torture: enumerate every mutating I/O of a scripted journal
// workload — ingest commits, tombstone commits, durable pins, compaction
// and GC — crash at exactly that operation under each fault mode, reboot,
// and verify the recovered lake against a model of acknowledged commits.
//
// The contract mirrors the archive's, tightened by the journal:
//   - an acknowledged commit (Store/Delete/OpenAt returned) is NEVER lost:
//     the journal record was fsynced before the ack;
//   - the single in-flight commit may legally surface whole after recovery
//     (its record reached the disk before the crash) or not at all — never
//     partially, because a commit is one CRC-framed record;
//   - an acknowledged pin keeps its exact snapshot readable bit-for-bit,
//     whatever compaction and GC did before or after the crash;
//   - the recovered lake is fully usable: it accepts new commits,
//     compaction and GC.

const lakeDir = "lakedir"

// lakeModel tracks the acknowledged state plus the one in-flight commit.
type lakeModel struct {
	live map[string]string            // acked live members
	pins map[string]map[string]string // acked pin token -> its snapshot

	// pendingLive is the live state if the in-flight commit surfaces
	// (nil when no data commit is in flight or it doesn't change the
	// view). pendingUnpin names a pin whose removal is in flight.
	pendingLive  map[string]string
	pendingUnpin string
	steps        int // acknowledged steps, for diagnostics
}

func cloneLive(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

type lakeStep struct {
	name  string
	apply func(l *lake.Lake, m *lakeModel) error
}

// lakeStore builds a step storing the given rel/day/data members as one
// batch commit.
func lakeStore(files ...lake.BatchFile) func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		next := cloneLive(m.live)
		todo := files[:0:0]
		for _, f := range files {
			if _, ok := m.live[f.Rel]; ok {
				continue // earlier ENOSPC run left it stored; skip
			}
			todo = append(todo, f)
			next[f.Rel] = string(f.Data)
		}
		if len(todo) == 0 {
			return nil
		}
		m.pendingLive = next
		if _, err := l.StoreBatch(todo); err != nil {
			return err
		}
		m.live, m.pendingLive = next, nil
		return nil
	}
}

// lakeDelete tombstones the rels that are currently live in the model.
func lakeDelete(rels ...string) func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		next := cloneLive(m.live)
		var todo []string
		for _, r := range rels {
			if _, ok := m.live[r]; !ok {
				continue
			}
			todo = append(todo, r)
			delete(next, r)
		}
		if len(todo) == 0 {
			return nil
		}
		m.pendingLive = next
		if _, err := l.Delete(todo); err != nil {
			return err
		}
		m.live, m.pendingLive = next, nil
		return nil
	}
}

// lakePin opens (and durably pins) a view at the current head; the token
// is remembered under the given label via the model's pin map.
func lakePin() func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		v, err := l.OpenAt(0)
		if err != nil {
			return err
		}
		m.pins[v.Token()] = cloneLive(m.live)
		return nil
	}
}

// lakeUnpinOldest releases the oldest acknowledged pin, if any.
func lakeUnpinOldest() func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		var oldest string
		for tok := range m.pins {
			if oldest == "" || tok < oldest {
				oldest = tok
			}
		}
		if oldest == "" {
			return nil
		}
		m.pendingUnpin = oldest
		if err := l.Unpin(oldest); err != nil {
			return err
		}
		delete(m.pins, oldest)
		m.pendingUnpin = ""
		return nil
	}
}

func lakeCompact() func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		// Aggressive thresholds so small test containers always qualify.
		_, err := l.Compact(lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2, MaxMerge: 64})
		return err
	}
}

func lakeGC() func(l *lake.Lake, m *lakeModel) error {
	return func(l *lake.Lake, m *lakeModel) error {
		_, err := l.GC(l.Head())
		return err
	}
}

func lakeScript() []lakeStep {
	bf := func(rel string, day int64, n int) lake.BatchFile {
		return lake.BatchFile{Rel: rel, Day: day, Data: payload(rel, n)}
	}
	return []lakeStep{
		{"store-u1", lakeStore(bf("raw/d001/u1", 1, 300))},
		{"store-u2", lakeStore(bf("raw/d001/u2", 1, 150))},
		{"batch-d2", lakeStore(bf("raw/d002/u3", 2, 90), bf("raw/d002/u4", 2, 210), bf("wavelet/u3.wav", 2, 60))},
		{"pin-A", lakePin()},
		{"store-u5", lakeStore(bf("raw/d003/u5", 3, 120))},
		{"delete-two", lakeDelete("raw/d001/u2", "raw/d002/u4")},
		{"compact-1", lakeCompact()},
		{"pin-B", lakePin()},
		{"gc-1", lakeGC()},
		{"store-u6", lakeStore(bf("raw/d003/u6", 3, 180))},
		{"delete-one", lakeDelete("wavelet/u3.wav")},
		{"compact-2", lakeCompact()},
		{"unpin-A", lakeUnpinOldest()},
		{"gc-2", lakeGC()},
		{"batch-d4", lakeStore(bf("raw/d004/u7", 4, 75), bf("raw/d004/u8", 4, 240))},
		{"unpin-B", lakeUnpinOldest()},
		{"compact-3", lakeCompact()},
		{"gc-3", lakeGC()},
	}
}

// lakeRun executes the scripted workload over the fault filesystem. With
// continueOnError (the ENOSPC drill) a failed step is skipped and the
// model simply does not acknowledge it.
func lakeRun(fs *fault.FS, continueOnError bool) (*lakeModel, error) {
	m := &lakeModel{live: map[string]string{}, pins: map[string]map[string]string{}}
	l, err := lake.Open(fs, lakeDir)
	if err != nil {
		return m, err
	}
	for _, st := range lakeScript() {
		if err := st.apply(l, m); err != nil {
			if continueOnError {
				m.pendingLive, m.pendingUnpin = nil, ""
				continue
			}
			return m, fmt.Errorf("step %s: %w", st.name, err)
		}
		m.steps++
	}
	return m, nil
}

// lakeState reads the whole live view of a lake as rel -> content.
func lakeState(l *lake.Lake) (map[string]string, error) {
	out := map[string]string{}
	for _, rel := range l.List() {
		data, err := l.Read(rel)
		if err != nil {
			return nil, fmt.Errorf("live member %s unreadable: %w", rel, err)
		}
		out[rel] = string(data)
	}
	return out, nil
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// lakeVerify reopens the lake after recovery and checks the contract.
func lakeVerify(fs *fault.FS, m *lakeModel) error {
	l, err := lake.Open(fs, lakeDir)
	if err != nil {
		return fmt.Errorf("recovered lake does not open: %w", err)
	}

	got, err := lakeState(l)
	if err != nil {
		return err
	}
	if !sameState(got, m.live) && (m.pendingLive == nil || !sameState(got, m.pendingLive)) {
		return fmt.Errorf("recovered live view (%d members) matches neither the %d acked members nor acked+pending",
			len(got), len(m.live))
	}

	// Acknowledged pins: present, attachable, bit-identical snapshots.
	// The one pin whose removal was in flight may be gone already.
	for token, snap := range m.pins {
		v, err := l.AttachPin(token)
		if err != nil {
			if token == m.pendingUnpin {
				continue
			}
			return fmt.Errorf("acked pin %s lost: %w", token, err)
		}
		if len(v.List()) != len(snap) {
			return fmt.Errorf("pin %s sees %d members, snapshot had %d", token, len(v.List()), len(snap))
		}
		for rel, want := range snap {
			data, err := v.Read(rel)
			if err != nil {
				return fmt.Errorf("pin %s member %s unreadable: %w", token, rel, err)
			}
			if string(data) != want {
				return fmt.Errorf("pin %s member %s diverged", token, rel)
			}
		}
	}

	// Usability probe: the recovered lake takes new commits, compaction
	// and GC without complaint, and stays consistent.
	probe := "probe/after-recovery"
	if slices.Contains(l.List(), probe) {
		if _, err := l.Delete([]string{probe}); err != nil {
			return fmt.Errorf("probe cleanup: %w", err)
		}
	}
	if _, err := l.StoreBatch([]lake.BatchFile{{Rel: probe, Day: 9, Data: payload(probe, 40)}}); err != nil {
		return fmt.Errorf("probe store on recovered lake: %w", err)
	}
	if data, err := l.Read(probe); err != nil || string(data) != string(payload(probe, 40)) {
		return fmt.Errorf("probe read on recovered lake: %v", err)
	}
	if _, err := l.Compact(lake.CompactOptions{SmallBytes: 1 << 20, MinMerge: 2}); err != nil {
		return fmt.Errorf("probe compact on recovered lake: %w", err)
	}
	if _, err := l.GC(l.Head()); err != nil {
		return fmt.Errorf("probe gc on recovered lake: %w", err)
	}
	if bad := l.Verify(); len(bad) != 0 {
		return fmt.Errorf("recovered lake fails verification: %v", bad)
	}
	return nil
}

// lakeCountOps runs the workload clean and returns the crash-site count.
func lakeCountOps(t *testing.T) int {
	t.Helper()
	fs := fault.NewFS()
	m, err := lakeRun(fs, false)
	if err != nil {
		t.Fatalf("clean lake run failed: %v", err)
	}
	if m.steps != len(lakeScript()) {
		t.Fatalf("clean run acknowledged %d/%d steps", m.steps, len(lakeScript()))
	}
	total := fs.OpCount()
	if err := lakeVerify(fs, m); err != nil {
		t.Fatalf("clean run final state mismatch: %v", err)
	}
	return total
}

func TestLakeWorkloadHasManyCrashSites(t *testing.T) {
	total := lakeCountOps(t)
	if total < 100 {
		t.Fatalf("lake workload performs only %d mutating I/O operations; journal+compaction+GC should yield hundreds of crash sites", total)
	}
	t.Logf("lake workload performs %d mutating I/O operations", total)
}

// TestLakeCrashEnumeration crashes the journal workload at every mutating
// I/O under every fault mode and verifies recovery.
func TestLakeCrashEnumeration(t *testing.T) {
	total := lakeCountOps(t)
	modes := []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModePartialFsync, fault.ModeBitFlip}
	step := 1
	if testing.Short() {
		// Short mode (scripts/check.sh lane): sample every 5th site per
		// mode with a different phase so the union still sweeps the space.
		step = 5
	}
	for mi, mode := range modes {
		mode, first := mode, 1+(mi%step)
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for n := first; n <= total; n += step {
				fs := fault.NewFS()
				fs.SetFault(n, mode)
				m, err := lakeRun(fs, false)
				if !fs.Crashed() {
					t.Fatalf("crash site %d/%d: workload did not crash (err=%v)", n, total, err)
				}
				// err may be nil when the crash landed in post-ack I/O of
				// the final step (head-pointer publish, GC file sweep):
				// the commit was already journaled, so the run ended clean.
				fs.Recover()
				if verr := lakeVerify(fs, m); verr != nil {
					t.Fatalf("crash site %d/%d (crashed in %q): %v\nsurviving files: %s",
						n, total, err, verr, strings.Join(fs.Paths(), " "))
				}
			}
		})
	}
}

// TestLakeENOSPCEnumeration injects persistent out-of-space starting at
// every operation: the lake must not crash, failed commits must have no
// effect, and once space returns the journal serves exactly the
// acknowledged commits and accepts new ones.
func TestLakeENOSPCEnumeration(t *testing.T) {
	total := lakeCountOps(t)
	step := 1
	if testing.Short() {
		step = 5
	}
	for n := 1; n <= total; n += step {
		fs := fault.NewFS()
		fs.SetFault(n, fault.ModeENOSPC)
		m, _ := lakeRun(fs, true)
		if fs.Crashed() {
			t.Fatalf("site %d/%d: ENOSPC must not crash the filesystem", n, total)
		}
		fs.ClearFault() // operator frees disk space
		if verr := lakeVerify(fs, m); verr != nil {
			t.Fatalf("ENOSPC from op %d/%d: %v\nfiles: %s",
				n, total, verr, strings.Join(fs.Paths(), " "))
		}
	}
}
