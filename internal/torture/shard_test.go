package torture

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
)

// Sharded-cell torture: the same crash-site enumeration discipline as the
// single-database harness, applied to the shard tier — the shards'
// identity rows and routed writes, single-shard and cross-shard. For every
// I/O operation of a scripted workload over a three-shard cell, crash at
// exactly that operation, reboot the whole cell (reopen every shard
// database and the router), and verify through the router:
//
//   - the router reopens over the same three shards: no shard's identity
//     row is lost or torn (a crash between one shard's identity write and
//     the next leaves the later shards to claim theirs on reopen);
//   - every acknowledged row is visible exactly once, bit-identical;
//   - the in-flight write may surface in full or not at all, never
//     partially and never as a duplicate. A cross-shard batch or
//     transaction is not atomic: its shards commit in ascending id order,
//     so each shard's part applies whole or not at all, and the applied
//     parts are a prefix of that order;
//   - no row the model never acknowledged (beyond the in-flight write)
//     exists.
//
// Under bitflip a *detected* corruption error at reopen is a pass, as in
// the single-database harness: the flip lands in never-acknowledged bytes.

const shardCount = 3

func shardDBDir(id int) string { return fmt.Sprintf("s%d", id) }

// shardPending is one row of the write the crash may have interrupted,
// tagged with the shard that commits it.
type shardPending struct {
	pk    string
	old   minidb.Row // nil for insert
	new   minidb.Row // nil for delete
	shard int
}

// shardModel is the acknowledged ground truth plus the in-flight write.
type shardModel struct {
	rows    map[string]minidb.Row
	pending []shardPending
}

func shardHLERow(seq int, label string) (string, minidb.Row) {
	pk := fmt.Sprintf("hle-%04d", seq)
	h := schema.HLE{
		ID: pk, Owner: fmt.Sprintf("user%d", seq%3), Public: seq%2 == 0,
		Label: label, KindHint: "flare", TStart: float64(seq*1024+7) / 1024,
		TStop: float64(seq) + 0.5, Day: int64(seq / 8),
		Quality: int64(seq % 6), Origin: "auto",
	}
	return pk, h.ToRow()
}

// openShardCell (re)opens every shard database and the router over one
// fault filesystem.
func openShardCell(fs *fault.FS) (*shard.Router, error) {
	shards := make(map[int]minidb.Engine, shardCount)
	for i := 0; i < shardCount; i++ {
		db, err := minidb.OpenVFS(fs, shardDBDir(i), schema.AllSchemas()...)
		if err != nil {
			for _, e := range shards {
				e.Close()
			}
			return nil, err
		}
		shards[i] = db
	}
	r, err := shard.NewRouter(shard.Options{Shards: shards})
	if err != nil {
		for _, e := range shards {
			e.Close()
		}
		return nil, err
	}
	return r, nil
}

func hleByPK(pk string) minidb.Query {
	return minidb.Query{Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(pk)}}}
}

// shardScript drives the workload against one router and mirrors every
// acknowledged write into the model.
type shardScript struct {
	r   *shard.Router
	m   *shardModel
	seq int
}

func (s *shardScript) owner(pk string) int {
	return s.r.Map().ReadOwner(shard.SlotOf(minidb.S(pk)))
}

// lookup returns the routed rowid of an acknowledged row.
func (s *shardScript) lookup(q func(minidb.Query) (*minidb.Result, error), pk string) (int64, error) {
	if _, ok := s.m.rows[pk]; !ok {
		return 0, fmt.Errorf("script bug: %s is not a live row", pk)
	}
	res, err := q(hleByPK(pk))
	if err != nil {
		return 0, err
	}
	if len(res.RowIDs) != 1 {
		return 0, fmt.Errorf("lookup %s: %d rows", pk, len(res.RowIDs))
	}
	return res.RowIDs[0], nil
}

// pendInsert, pendUpdate and pendRemove record one row of the next write
// as in flight; the first two return the row to write.
func (s *shardScript) pendInsert() minidb.Row {
	s.seq++
	pk, row := shardHLERow(s.seq, "v1")
	s.m.pending = append(s.m.pending, shardPending{pk: pk, new: row, shard: s.owner(pk)})
	return row
}

func (s *shardScript) pendUpdate(n int, label string) minidb.Row {
	pk, row := shardHLERow(n, label)
	s.m.pending = append(s.m.pending, shardPending{pk: pk, old: s.m.rows[pk], new: row, shard: s.owner(pk)})
	return row
}

func (s *shardScript) pendRemove(n int) {
	pk, _ := shardHLERow(n, "")
	s.m.pending = append(s.m.pending, shardPending{pk: pk, old: s.m.rows[pk], shard: s.owner(pk)})
}

// ack folds the acknowledged in-flight write into the model.
func (s *shardScript) ack() {
	for _, p := range s.m.pending {
		if p.new == nil {
			delete(s.m.rows, p.pk)
		} else {
			s.m.rows[p.pk] = p.new
		}
	}
	s.m.pending = nil
}

func (s *shardScript) insert() error {
	if _, err := s.r.Insert(schema.TableHLE, s.pendInsert()); err != nil {
		return err
	}
	s.ack()
	return nil
}

func (s *shardScript) update(n int, label string) error {
	pk, _ := shardHLERow(n, "")
	id, err := s.lookup(s.r.Query, pk)
	if err != nil {
		return err
	}
	if err := s.r.Update(schema.TableHLE, id, s.pendUpdate(n, label)); err != nil {
		return err
	}
	s.ack()
	return nil
}

func (s *shardScript) remove(n int) error {
	pk, _ := shardHLERow(n, "")
	id, err := s.lookup(s.r.Query, pk)
	if err != nil {
		return err
	}
	s.pendRemove(n)
	if err := s.r.Delete(schema.TableHLE, id); err != nil {
		return err
	}
	s.ack()
	return nil
}

// batch applies one Apply batch of inserts, updates and deletes, which
// the router splits into one sub-batch per shard.
func (s *shardScript) batch(inserts int, updates []int, label string, removes []int) error {
	b := &minidb.Batch{}
	for _, n := range updates {
		pk, _ := shardHLERow(n, "")
		id, err := s.lookup(s.r.Query, pk)
		if err != nil {
			return err
		}
		b.Update(schema.TableHLE, id, s.pendUpdate(n, label))
	}
	for _, n := range removes {
		pk, _ := shardHLERow(n, "")
		id, err := s.lookup(s.r.Query, pk)
		if err != nil {
			return err
		}
		s.pendRemove(n)
		b.Delete(schema.TableHLE, id)
	}
	for i := 0; i < inserts; i++ {
		b.Insert(schema.TableHLE, s.pendInsert())
	}
	if err := s.spansShards(); err != nil {
		return err
	}
	if _, err := s.r.Apply(b); err != nil {
		return err
	}
	s.ack()
	return nil
}

// txn runs the same mix inside one router transaction.
func (s *shardScript) txn(inserts int, updates []int, label string, removes []int) error {
	tx := s.r.BeginTx()
	defer tx.Rollback()
	for _, n := range updates {
		pk, _ := shardHLERow(n, "")
		id, err := s.lookup(tx.Query, pk)
		if err != nil {
			return err
		}
		if err := tx.Update(schema.TableHLE, id, s.pendUpdate(n, label)); err != nil {
			return err
		}
	}
	for _, n := range removes {
		pk, _ := shardHLERow(n, "")
		id, err := s.lookup(tx.Query, pk)
		if err != nil {
			return err
		}
		s.pendRemove(n)
		if err := tx.Delete(schema.TableHLE, id); err != nil {
			return err
		}
	}
	for i := 0; i < inserts; i++ {
		if _, err := tx.Insert(schema.TableHLE, s.pendInsert()); err != nil {
			return err
		}
	}
	if err := s.spansShards(); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	s.ack()
	return nil
}

// spansShards keeps the cross-shard steps honest: each must write to
// every shard of the cell.
func (s *shardScript) spansShards() error {
	hit := map[int]bool{}
	for _, p := range s.m.pending {
		hit[p.shard] = true
	}
	if len(hit) != shardCount {
		return fmt.Errorf("script bug: a cross-shard write touches %d of %d shards", len(hit), shardCount)
	}
	return nil
}

// runShardWorkload executes the scripted sharded workload, mirroring every
// acknowledged write into the model. It returns on the first error (the
// injected crash); the model then holds the acknowledged prefix plus the
// interrupted write.
func runShardWorkload(fs *fault.FS) (*shardModel, error) {
	m := &shardModel{rows: make(map[string]minidb.Row)}
	r, err := openShardCell(fs)
	if err != nil {
		return m, err
	}
	defer r.Close()
	s := &shardScript{r: r, m: m}

	steps := []func() error{
		s.insert, s.insert, s.insert, s.insert, s.insert,
		s.insert, s.insert, s.insert, s.insert, s.insert,
		func() error { return s.update(3, "v2") },
		func() error { return s.remove(5) },
		// Cross-shard: one batch and one transaction, each writing to
		// all three shards.
		func() error { return s.batch(6, []int{7, 9}, "v2-batch", []int{2}) },
		func() error { return s.txn(3, []int{1, 8}, "v2-txn", []int{4, 12}) },
		s.insert, s.insert, s.insert,
		func() error { return s.update(14, "v3") },
		func() error { return s.remove(11) },
		func() error { return s.batch(4, []int{3, 6, 13}, "v3-batch", []int{10, 15}) },
		func() error { return s.txn(2, []int{16, 17}, "v3-txn", []int{9}) },
		s.insert, s.insert,
		func() error { return s.update(20, "v4") },
		func() error { return s.batch(5, nil, "", []int{1, 22}) },
		s.insert, s.insert, s.insert,
		func() error { return s.remove(18) },
		func() error { return s.txn(3, []int{19, 21, 23}, "v4-txn", []int{24}) },
		func() error { return s.update(25, "v5") },
		func() error { return s.batch(3, []int{26, 27}, "v5-batch", []int{28}) },
		s.insert,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return m, err
		}
	}
	return m, nil
}

func sameShardValue(a, b minidb.Value) bool {
	return a.T == b.T && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F) && bytes.Equal(a.B, b.B)
}

func sameShardRow(a, b minidb.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameShardValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// verifyShardCell reboots the cell and checks the recovered state against
// the model. mode bitflip tolerates a detected reopen failure.
func verifyShardCell(fs *fault.FS, m *shardModel, mode fault.Mode) error {
	r, err := openShardCell(fs)
	if err != nil {
		var idErr *shard.IdentityError
		if mode == fault.ModeBitFlip && !errors.As(err, &idErr) {
			return nil // detected corruption: refusing to open is correct
		}
		return fmt.Errorf("reopen: %w", err)
	}
	defer r.Close()

	readOne := func(pk string) (minidb.Row, error) {
		res, err := r.Query(hleByPK(pk))
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", pk, err)
		}
		switch len(res.Rows) {
		case 0:
			return nil, nil
		case 1:
			return res.Rows[0], nil
		}
		return nil, fmt.Errorf("row %s visible %d times", pk, len(res.Rows))
	}

	// The in-flight write: each row is in its old or its new state, each
	// shard's part applied whole or not at all, and the applied parts a
	// prefix of the ascending shard commit order.
	pending := make(map[string]bool, len(m.pending))
	applied := make(map[int]bool)
	live := 0
	for _, p := range m.pending {
		pending[p.pk] = true
		got, err := readOne(p.pk)
		if err != nil {
			return err
		}
		if got != nil {
			live++
		}
		isNew := (got == nil && p.new == nil) || (got != nil && p.new != nil && sameShardRow(got, p.new))
		isOld := (got == nil && p.old == nil) || (got != nil && p.old != nil && sameShardRow(got, p.old))
		if !isNew && !isOld {
			return fmt.Errorf("in-flight row %s is in neither its old nor its new state", p.pk)
		}
		if was, seen := applied[p.shard]; seen && was != isNew {
			return fmt.Errorf("in-flight write applied partially on shard %d", p.shard)
		}
		applied[p.shard] = isNew
	}
	stopped := -1
	for sid := 0; sid < shardCount; sid++ {
		isNew, touched := applied[sid]
		switch {
		case !touched:
		case !isNew && stopped < 0:
			stopped = sid
		case isNew && stopped >= 0:
			return fmt.Errorf("in-flight write applied on shard %d but not on shard %d, which commits first", sid, stopped)
		}
	}

	// Every other acknowledged row: visible exactly once, bit-identical.
	for pk, want := range m.rows {
		if pending[pk] {
			continue
		}
		got, err := readOne(pk)
		if err != nil {
			return err
		}
		if got == nil {
			return fmt.Errorf("acknowledged row %s lost after recovery", pk)
		}
		if !sameShardRow(got, want) {
			return fmt.Errorf("acknowledged row %s corrupted after recovery", pk)
		}
		live++
	}

	// Full scan through the router: nothing beyond model ∪ in-flight, and
	// nothing twice.
	res, err := r.Query(minidb.Query{Table: schema.TableHLE,
		OrderBy: []minidb.Order{{Col: "hle_id"}}})
	if err != nil {
		return fmt.Errorf("full scan: %w", err)
	}
	seen := make(map[string]bool)
	for _, row := range res.Rows {
		pk := row[0].S
		if seen[pk] {
			return fmt.Errorf("row %s appears twice in a router scan", pk)
		}
		seen[pk] = true
		if _, acked := m.rows[pk]; !acked && !pending[pk] {
			return fmt.Errorf("unacknowledged row %s surfaced after recovery", pk)
		}
	}
	if res.Count != live || len(res.Rows) != live {
		return fmt.Errorf("scan count %d (%d rows), want %d", res.Count, len(res.Rows), live)
	}
	return nil
}

func countShardOps(t *testing.T) int {
	t.Helper()
	fs := fault.NewFS()
	m, err := runShardWorkload(fs)
	if err != nil {
		t.Fatalf("clean sharded run failed: %v", err)
	}
	total := fs.OpCount()
	if err := verifyShardCell(fs, m, fault.ModeCrash); err != nil {
		t.Fatalf("clean sharded run final state mismatch: %v", err)
	}
	return total
}

func TestShardWorkloadHasManyCrashSites(t *testing.T) {
	total := countShardOps(t)
	if total < 100 {
		t.Fatalf("sharded workload performs only %d mutating I/O operations", total)
	}
	t.Logf("sharded workload performs %d mutating I/O operations", total)
}

// TestShardCrashEnumeration crashes the sharded workload at every I/O
// operation under every fault mode and verifies cell recovery — including
// the sites between one shard's identity write and the next, and between
// the per-shard commits of a cross-shard batch or transaction.
func TestShardCrashEnumeration(t *testing.T) {
	total := countShardOps(t)
	modes := []fault.Mode{fault.ModeCrash, fault.ModeTorn, fault.ModePartialFsync, fault.ModeBitFlip}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			for n := 1; n <= total; n++ {
				fs := fault.NewFS()
				fs.SetFault(n, mode)
				m, err := runShardWorkload(fs)
				if err == nil || !fs.Crashed() {
					t.Fatalf("crash site %d/%d: workload did not crash (err=%v)", n, total, err)
				}
				fs.Recover()
				if verr := verifyShardCell(fs, m, mode); verr != nil {
					t.Fatalf("crash site %d/%d (crashed in %q): %v", n, total, err, verr)
				}
			}
		})
	}
}
