// Package torture is the crash-recovery torture harness for the metadata
// database (internal/minidb) and the archive tier (internal/archive).
//
// The paper's durability claim — redo logs on the most protected storage
// tier, "a crash in the middle of a transaction loses nothing that was
// acknowledged" (§2.3) — is only worth repeating if it survives adversarial
// testing. The harness runs a fixed, deterministic workload (transactions,
// rollbacks, checkpoints, archive stores and removes) against a
// fault-injecting in-memory filesystem (internal/fault), while mirroring
// every *acknowledged* operation into a plain in-memory model. It then
// enumerates every I/O operation the workload performs and, for each one,
// reruns the workload with the filesystem rigged to crash at exactly that
// operation, "reboots" (recovers the filesystem, reopens the database and
// archive), and checks the recovered state against the model.
//
// What recovery is allowed to show, by fault mode:
//
//   - crash, partialfsync: exactly the acknowledged prefix. Acknowledgement
//     happens only after fsync, and these modes preserve at most what was
//     fsynced, so the in-flight operation can never surface.
//   - torn: the acknowledged prefix, or the prefix plus the single
//     in-flight operation applied in full (the lenient page cache may have
//     persisted its commit record before the crash) — never a partial
//     transaction and never a lost acknowledged one.
//   - bitflip: as torn, or a *detected* corruption error at reopen. The
//     flip lands in never-acknowledged bytes by construction (synced bytes
//     cannot be in flight), so refusing to open is correct; silently
//     opening with acknowledged data missing is the failure being hunted.
//   - enospc: no crash at all — operations fail, the process keeps going.
//     The database and archive must stay usable, report the failures, and
//     after space is freed recover to serving exactly the operations that
//     succeeded.
//
// The archive side runs on the production engine (the lake behind
// archive.NewLakeVFS) and holds the same contract: a store or remove is
// acknowledged only after its journal record is fsynced, so the strict
// modes never surface an in-flight one; the lenient modes may surface it
// whole or not at all (a commit is one CRC-framed record); recovery never
// lists a path that was never stored; and a flipped bit yields the right
// bytes or a typed refusal (archive.ErrCorrupt, *lake.CorruptError) —
// never wrong bytes. A crash in the I/O that follows the acknowledgement
// point (the advisory head-pointer publish) leaves the operation
// acknowledged: the workload then dies at its next operation instead.
package torture

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/fault"
	"repro/internal/lake"
	"repro/internal/minidb"
)

// Workload layout inside the fault filesystem.
const (
	DBDir   = "db"
	ArchDir = "arch"
	ArchID  = "a0"
)

var tableNames = []string{"events", "notes"}

// Schemas returns the workload's table schemas (a keyed+indexed table and a
// plain one, so recovery exercises index rebuild paths too).
func Schemas() []*minidb.Schema {
	return []*minidb.Schema{
		{
			Name: "events",
			Columns: []minidb.Column{
				{Name: "id", Type: minidb.IntType},
				{Name: "band", Type: minidb.StringType},
				{Name: "flux", Type: minidb.FloatType},
				{Name: "tag", Type: minidb.StringType, Nullable: true},
			},
			PrimaryKey: "id",
			Indexes:    []string{"band"},
		},
		{
			Name: "notes",
			Columns: []minidb.Column{
				{Name: "author", Type: minidb.StringType},
				{Name: "text", Type: minidb.StringType},
			},
		},
	}
}

// dbOp is one mutation of the model: row == nil is a delete.
type dbOp struct {
	table string
	rowid int64
	row   minidb.Row
}

// Model tracks what the workload has been *acknowledged* — the ground truth
// recovery is verified against — plus the single in-flight operation a
// crash interrupted (at most one exists: the workload is sequential).
type Model struct {
	Tables map[string]map[int64]minidb.Row
	Files  map[string][]byte

	// PendingTxn is the full delta of a transaction whose Commit was
	// interrupted; lenient modes may legally surface it (whole, or not at
	// all).
	PendingTxn []dbOp
	// PendingStore / PendingRemove are an archive store/remove whose
	// acknowledgement was interrupted.
	PendingStore  string
	PendingData   []byte
	PendingRemove string
}

func newModel() *Model {
	m := &Model{Tables: make(map[string]map[int64]minidb.Row), Files: make(map[string][]byte)}
	for _, t := range tableNames {
		m.Tables[t] = make(map[int64]minidb.Row)
	}
	return m
}

func (m *Model) apply(delta []dbOp) {
	for _, op := range delta {
		if op.row == nil {
			delete(m.Tables[op.table], op.rowid)
		} else {
			m.Tables[op.table][op.rowid] = op.row
		}
	}
}

// withPending returns a copy of the acknowledged tables with the in-flight
// transaction applied — the alternate state lenient modes may expose.
func (m *Model) withPending() map[string]map[int64]minidb.Row {
	out := make(map[string]map[int64]minidb.Row, len(m.Tables))
	for name, rows := range m.Tables {
		cp := make(map[int64]minidb.Row, len(rows))
		for id, r := range rows {
			cp[id] = r
		}
		out[name] = cp
	}
	for _, op := range m.PendingTxn {
		if op.row == nil {
			delete(out[op.table], op.rowid)
		} else {
			out[op.table][op.rowid] = op.row
		}
	}
	return out
}

// run is one workload execution against one filesystem.
type run struct {
	fs    *fault.FS
	db    *minidb.DB
	arch  *archive.Archive
	model *Model
}

// commitTxn runs build inside a transaction. build returns the model delta
// the transaction will produce if committed; errors from build itself are
// harness bugs and are returned wrapped so tests fail loudly.
func (r *run) commitTxn(build func(tx *minidb.Txn) ([]dbOp, error)) error {
	tx := r.db.Begin()
	delta, err := build(tx)
	if err != nil {
		tx.Rollback()
		return fmt.Errorf("torture: workload bug: %w", err)
	}
	if err := tx.Commit(); err != nil {
		r.model.PendingTxn = delta
		return err
	}
	r.model.apply(delta)
	return nil
}

func (r *run) insertEvent(id int64, band string, flux float64) error {
	return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
		row := minidb.Row{minidb.I(id), minidb.S(band), minidb.F(flux), minidb.Null()}
		rowid, err := tx.Insert("events", row)
		if err != nil {
			return nil, err
		}
		return []dbOp{{"events", rowid, row}}, nil
	})
}

func (r *run) store(rel string, data []byte) error {
	if err := r.arch.Store(rel, data); err != nil {
		r.model.PendingStore, r.model.PendingData = rel, data
		return err
	}
	r.model.Files[rel] = data
	return nil
}

func (r *run) remove(rel string) error {
	if err := r.arch.Remove(rel); err != nil {
		r.model.PendingRemove = rel
		return err
	}
	delete(r.model.Files, rel)
	return nil
}

// clearPending forgets in-flight markers. The ENOSPC runner calls it after
// a failed step: with no crash, a failed operation has been rolled back or
// compensated and will never surface.
func (m *Model) clearPending() {
	m.PendingTxn = nil
	m.PendingStore, m.PendingData = "", nil
	m.PendingRemove = ""
}

// step is one unit of the scripted workload.
type step struct {
	name string
	fn   func(*run) error
}

// payload builds deterministic archive file content of a given size.
func payload(tag string, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(tag[i%len(tag)] + byte(i/len(tag)))
	}
	return b
}

// Steps returns the scripted workload. It is deliberately varied: single-
// and multi-op transactions, cross-table transactions, rollbacks,
// checkpoints (twice, so the stale-log path runs), archive stores in nested
// directories, and removes (tombstone commits).
func Steps() []step {
	var s []step
	add := func(name string, fn func(*run) error) { s = append(s, step{name, fn}) }

	for i := 0; i < 6; i++ {
		id, band := int64(100+i), []string{"ha", "hxr", "radio"}[i%3]
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, band, float64(id)/7)
		})
	}
	add("multi-insert-notes", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			var delta []dbOp
			for i := 0; i < 4; i++ {
				row := minidb.Row{minidb.S("arz"), minidb.S(fmt.Sprintf("flare note %d", i))}
				rowid, err := tx.Insert("notes", row)
				if err != nil {
					return nil, err
				}
				delta = append(delta, dbOp{"notes", rowid, row})
			}
			return delta, nil
		})
	})
	add("rollback-txn", func(r *run) error {
		tx := r.db.Begin()
		if _, err := tx.Insert("events", minidb.Row{minidb.I(999), minidb.S("never"), minidb.F(0), minidb.Null()}); err != nil {
			tx.Rollback()
			return fmt.Errorf("torture: workload bug: %w", err)
		}
		tx.Rollback() // acknowledged state unchanged; no I/O happens
		return nil
	})
	add("store-f1", func(r *run) error { return r.store("gif/f1.gif", payload("f1", 900)) })
	add("update+delete-txn", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			res, err := tx.Query(minidb.Query{Table: "events", Where: []minidb.Pred{
				{Col: "id", Op: minidb.OpEq, Val: minidb.I(100)}}})
			if err != nil || len(res.RowIDs) != 1 {
				return nil, fmt.Errorf("lookup id=100: %v (%d rows)", err, len(res.RowIDs))
			}
			updated := minidb.Row{minidb.I(100), minidb.S("ha"), minidb.F(9.25), minidb.S("revised")}
			if err := tx.Update("events", res.RowIDs[0], updated); err != nil {
				return nil, err
			}
			res2, err := tx.Query(minidb.Query{Table: "events", Where: []minidb.Pred{
				{Col: "id", Op: minidb.OpEq, Val: minidb.I(101)}}})
			if err != nil || len(res2.RowIDs) != 1 {
				return nil, fmt.Errorf("lookup id=101: %v", err)
			}
			if err := tx.Delete("events", res2.RowIDs[0]); err != nil {
				return nil, err
			}
			return []dbOp{{"events", res.RowIDs[0], updated}, {"events", res2.RowIDs[0], nil}}, nil
		})
	})
	add("checkpoint-1", func(r *run) error { return r.db.Checkpoint() })
	for i := 0; i < 8; i++ {
		id := int64(200 + i)
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, "vla", float64(id)*1.5)
		})
	}
	add("store-f2", func(r *run) error { return r.store("fits.gz/sub/f2.fits.gz", payload("f2", 2100)) })
	add("store-f3", func(r *run) error { return r.store("wavelet/f3.wv", payload("f3", 400)) })
	add("remove-f1", func(r *run) error { return r.remove("gif/f1.gif") })
	add("cross-table-txn", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			var delta []dbOp
			for i := 0; i < 5; i++ {
				row := minidb.Row{minidb.I(int64(300 + i)), minidb.S("gbo"), minidb.F(float64(i)), minidb.S("batch")}
				rowid, err := tx.Insert("events", row)
				if err != nil {
					return nil, err
				}
				delta = append(delta, dbOp{"events", rowid, row})
			}
			row := minidb.Row{minidb.S("loader"), minidb.S("batch of 5 loaded")}
			rowid, err := tx.Insert("notes", row)
			if err != nil {
				return nil, err
			}
			return append(delta, dbOp{"notes", rowid, row}), nil
		})
	})
	add("checkpoint-2", func(r *run) error { return r.db.Checkpoint() })
	add("store-f4", func(r *run) error { return r.store("log/f4.log", payload("f4", 60)) })
	add("remove-f3", func(r *run) error { return r.remove("wavelet/f3.wv") })
	for i := 0; i < 5; i++ {
		id := int64(400 + i)
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, "hessi", float64(id)/3)
		})
	}
	add("store-f5", func(r *run) error { return r.store("gif/f5.gif", payload("f5", 1300)) })
	add("store-f6", func(r *run) error { return r.store("params/deep/f6.par", payload("f6", 250)) })
	add("multi-insert-notes-2", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			var delta []dbOp
			for i := 0; i < 3; i++ {
				row := minidb.Row{minidb.S("auditor"), minidb.S(fmt.Sprintf("pass %d ok", i))}
				rowid, err := tx.Insert("notes", row)
				if err != nil {
					return nil, err
				}
				delta = append(delta, dbOp{"notes", rowid, row})
			}
			return delta, nil
		})
	})
	add("remove-f4", func(r *run) error { return r.remove("log/f4.log") })
	for i := 0; i < 7; i++ {
		id := int64(500 + i)
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, []string{"ha", "vla"}[i%2], float64(id)*0.25)
		})
	}
	add("update-batch-txn", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			var delta []dbOp
			for _, id := range []int64{200, 201, 202} {
				res, err := tx.Query(minidb.Query{Table: "events", Where: []minidb.Pred{
					{Col: "id", Op: minidb.OpEq, Val: minidb.I(id)}}})
				if err != nil || len(res.RowIDs) != 1 {
					return nil, fmt.Errorf("lookup id=%d: %v", id, err)
				}
				updated := minidb.Row{minidb.I(id), minidb.S("vla"), minidb.F(float64(id) * 1.5), minidb.S("calibrated")}
				if err := tx.Update("events", res.RowIDs[0], updated); err != nil {
					return nil, err
				}
				delta = append(delta, dbOp{"events", res.RowIDs[0], updated})
			}
			return delta, nil
		})
	})
	add("checkpoint-3", func(r *run) error { return r.db.Checkpoint() })
	add("store-f7", func(r *run) error { return r.store("wavelet/f7.wv", payload("f7", 800)) })
	add("remove-f2", func(r *run) error { return r.remove("fits.gz/sub/f2.fits.gz") })
	for i := 0; i < 8; i++ {
		id := int64(600 + i)
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, "hessi", float64(id)+0.125)
		})
	}
	add("store-f8", func(r *run) error { return r.store("gif/f8.gif", payload("f8", 512)) })
	add("store-f9", func(r *run) error { return r.store("log/f9.log", payload("f9", 96)) })
	add("remove-f5", func(r *run) error { return r.remove("gif/f5.gif") })
	for i := 0; i < 9; i++ {
		id := int64(800 + i)
		add(fmt.Sprintf("insert-event-%d", id), func(r *run) error {
			return r.insertEvent(id, "gbo", float64(id)/11)
		})
	}
	add("final-cross-txn", func(r *run) error {
		return r.commitTxn(func(tx *minidb.Txn) ([]dbOp, error) {
			row := minidb.Row{minidb.I(700), minidb.S("radio"), minidb.F(7.5), minidb.S("final")}
			rowid, err := tx.Insert("events", row)
			if err != nil {
				return nil, err
			}
			note := minidb.Row{minidb.S("closer"), minidb.S("workload complete")}
			nid, err := tx.Insert("notes", note)
			if err != nil {
				return nil, err
			}
			return []dbOp{{"events", rowid, row}, {"notes", nid, note}}, nil
		})
	})
	return s
}

// Run executes the scripted workload on fs. continueOnError keeps going
// after failed steps (the ENOSPC discipline: errors are reported, the
// process survives); otherwise the first error — the injected crash —
// stops the run. The returned model reflects exactly the acknowledged
// operations; firstErr is the first failure observed (nil on a clean run).
func Run(fs *fault.FS, continueOnError bool) (m *Model, firstErr error) {
	m = newModel()
	db, err := minidb.OpenVFS(fs, DBDir, Schemas()...)
	if err != nil {
		return m, fmt.Errorf("open db: %w", err)
	}
	arch, err := archive.NewLakeVFS(fs, ArchID, archive.Disk, ArchDir, 0)
	if err != nil {
		return m, fmt.Errorf("open archive: %w", err)
	}
	r := &run{fs: fs, db: db, arch: arch, model: m}
	for _, st := range Steps() {
		err := st.fn(r)
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("step %s: %w", st.name, err)
		}
		if !continueOnError {
			return m, firstErr
		}
		// No crash happened: the failed operation was rolled back or
		// compensated and must never surface.
		m.clearPending()
	}
	if firstErr == nil {
		// Clean run: close the log so a plain reopen sees a flushed file.
		if err := db.Close(); err != nil {
			return m, fmt.Errorf("close db: %w", err)
		}
	}
	return m, firstErr
}

// --- Concurrent committers: torturing the group-commit WAL ---------------
//
// The serial workload above exercises one committer. Group commit changes
// the durability machinery — many transactions ride one WAL append+fsync,
// led by whichever committer got there first — so it gets its own
// enumeration. The contract under crash faults:
//
//   - acknowledged batches (Apply returned nil) are never lost,
//   - every batch is all-or-nothing: no recovered state may show part of
//     one (the per-txn commit markers in the shared append run seal each
//     batch independently),
//   - un-acknowledged batches may surface whole (the group's fsync can
//     complete before every waiter observes its acknowledgement) — but
//     only batches that were actually submitted.
//
// Unlike the serial workload, concurrent grouping is nondeterministic: two
// runs reach a given I/O-operation count at different workload points, and
// a faulted run may finish without ever executing the rigged operation.
// The enumeration therefore skips sites the run never reached.

// concurrentBase is where the concurrent workload's key space starts.
const concurrentBase = 10000

// ConcurrentModel records per-batch outcomes of a concurrent run. Batches
// are identified by their base key; each inserts a disjoint range of
// events rows.
type ConcurrentModel struct {
	mu        sync.Mutex
	attempted map[int64]map[int64]minidb.Row // base -> id -> row, every batch submitted
	acked     map[int64]bool                 // bases whose Apply returned nil
}

func (cm *ConcurrentModel) noteAttempt(base int64, rows map[int64]minidb.Row) {
	cm.mu.Lock()
	cm.attempted[base] = rows
	cm.mu.Unlock()
}

func (cm *ConcurrentModel) noteAck(base int64) {
	cm.mu.Lock()
	cm.acked[base] = true
	cm.mu.Unlock()
}

// Acked returns how many batches were acknowledged.
func (cm *ConcurrentModel) Acked() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return len(cm.acked)
}

// RunConcurrent executes workers goroutines each committing batches
// disjoint-key insert batches of rowsPerBatch events through DB.Apply —
// the group-commit path. It returns the model of submitted and
// acknowledged batches. A worker stops at its first error (the injected
// crash); on a clean filesystem every batch must be acknowledged.
func RunConcurrent(fs *fault.FS, workers, batches, rowsPerBatch int) (*ConcurrentModel, error) {
	cm := &ConcurrentModel{
		attempted: make(map[int64]map[int64]minidb.Row),
		acked:     make(map[int64]bool),
	}
	db, err := minidb.OpenVFS(fs, DBDir, Schemas()...)
	if err != nil {
		return cm, fmt.Errorf("open db: %w", err)
	}
	db.SetGroupCommit(workers, 0)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if stopped.Load() {
					return
				}
				base := int64(concurrentBase + (w*batches+b)*rowsPerBatch)
				rows := make(map[int64]minidb.Row, rowsPerBatch)
				var batch minidb.Batch
				for k := 0; k < rowsPerBatch; k++ {
					id := base + int64(k)
					row := minidb.Row{
						minidb.I(id), minidb.S([]string{"ha", "vla", "gbo"}[w%3]),
						minidb.F(float64(id) / 13), minidb.S(fmt.Sprintf("w%d-b%d", w, b)),
					}
					batch.Insert("events", row)
					rows[id] = row
				}
				cm.noteAttempt(base, rows)
				if _, err := db.Apply(&batch); err != nil {
					stopped.Store(true) // the rigged op fired; stop submitting
					return
				}
				cm.noteAck(base)
			}
		}(w)
	}
	wg.Wait()
	if !fs.Crashed() {
		if err := db.Close(); err != nil {
			return cm, fmt.Errorf("close db: %w", err)
		}
	}
	return cm, nil
}

// VerifyConcurrent reopens the database and checks the recovered events
// table against the concurrent model's contract.
func VerifyConcurrent(fs *fault.FS, cm *ConcurrentModel, mode fault.Mode) error {
	db, err := minidb.OpenVFS(fs, DBDir, Schemas()...)
	if err != nil {
		if mode == fault.ModeBitFlip {
			return nil // detected corruption at reopen is acceptable
		}
		return fmt.Errorf("reopen db: %v", err)
	}
	defer db.Close()
	res, err := db.Query(minidb.Query{Table: "events"})
	if err != nil {
		return fmt.Errorf("dump events: %v", err)
	}
	got := make(map[int64]minidb.Row, len(res.Rows))
	for _, r := range res.Rows {
		got[r[0].Int()] = r
	}

	cm.mu.Lock()
	defer cm.mu.Unlock()
	claimed := 0
	for base, rows := range cm.attempted {
		present := 0
		for id, want := range rows {
			g, ok := got[id]
			if !ok {
				continue
			}
			present++
			if !rowsEqual(g, want) {
				return fmt.Errorf("batch %d: row %d recovered with wrong content", base, id)
			}
		}
		if present != 0 && present != len(rows) {
			return fmt.Errorf("batch %d recovered torn: %d of %d rows", base, present, len(rows))
		}
		if cm.acked[base] && present == 0 {
			return fmt.Errorf("acknowledged batch %d lost after recovery", base)
		}
		claimed += present
	}
	if claimed != len(got) {
		return fmt.Errorf("recovered %d rows but only %d belong to submitted batches", len(got), claimed)
	}
	return nil
}

// Verify reopens the database and archive on the recovered filesystem and
// checks the state against the model under the given mode's contract. It
// returns nil when recovery is acceptable.
func Verify(fs *fault.FS, m *Model, mode fault.Mode) error {
	lenient := mode == fault.ModeTorn || mode == fault.ModeBitFlip

	db, err := minidb.OpenVFS(fs, DBDir, Schemas()...)
	if err != nil {
		if mode == fault.ModeBitFlip {
			return nil // detected corruption: an acceptable bitflip outcome
		}
		return fmt.Errorf("reopen db: %v", err)
	}
	defer db.Close()
	got, err := dbState(db)
	if err != nil {
		return err
	}
	if !tablesEqual(got, m.Tables) {
		if !(lenient && m.PendingTxn != nil && tablesEqual(got, m.withPending())) {
			return fmt.Errorf("recovered db state is neither the acknowledged prefix nor prefix+in-flight txn:\n got: %v\nwant: %v", describe(got), describe(m.Tables))
		}
	}

	arch, err := archive.NewLakeVFS(fs, ArchID, archive.Disk, ArchDir, 0)
	if err != nil {
		var ce *lake.CorruptError
		if mode == fault.ModeBitFlip && (errors.As(err, &ce) || errors.Is(err, archive.ErrCorrupt)) {
			return nil // a typed refusal to open: an acceptable bitflip outcome
		}
		return fmt.Errorf("reopen archive: %v", err)
	}
	// Every acknowledged file must be present, readable and byte-identical
	// — except one whose un-acknowledged removal was in flight, which a
	// lenient mode may already show gone (its record reached the disk).
	for rel, want := range m.Files {
		data, err := arch.Read(rel)
		if err != nil {
			if lenient && rel == m.PendingRemove && errors.Is(err, archive.ErrNotFound) {
				continue
			}
			return fmt.Errorf("acknowledged file %s unreadable after recovery: %v", rel, err)
		}
		if !reflect.DeepEqual(data, want) {
			return fmt.Errorf("acknowledged file %s has wrong content after recovery", rel)
		}
	}
	// Anything extra must be the in-flight store, in a lenient mode, whole:
	// its bytes intact or — when the flipped bit landed in them — refused
	// with ErrCorrupt, never served wrong.
	for _, rel := range arch.List() {
		if _, acked := m.Files[rel]; acked {
			continue
		}
		if rel != m.PendingStore {
			return fmt.Errorf("recovered archive lists %s, which was never stored", rel)
		}
		if !lenient {
			return fmt.Errorf("un-acknowledged store %s surfaced in %s mode", rel, mode)
		}
		data, err := arch.Read(rel)
		if err != nil {
			if mode == fault.ModeBitFlip && errors.Is(err, archive.ErrCorrupt) {
				continue
			}
			return fmt.Errorf("archive lists in-flight store %s but its bytes are not durable: %v", rel, err)
		}
		if !reflect.DeepEqual(data, m.PendingData) {
			return fmt.Errorf("in-flight store %s recovered with wrong content", rel)
		}
	}
	return nil
}

// dbState dumps every table of the reopened database as rowid->row maps.
func dbState(db *minidb.DB) (map[string]map[int64]minidb.Row, error) {
	out := make(map[string]map[int64]minidb.Row, len(tableNames))
	for _, name := range tableNames {
		res, err := db.Query(minidb.Query{Table: name})
		if err != nil {
			return nil, fmt.Errorf("dump %s: %v", name, err)
		}
		rows := make(map[int64]minidb.Row, len(res.Rows))
		for i, r := range res.Rows {
			rows[res.RowIDs[i]] = r
		}
		out[name] = rows
	}
	return out, nil
}

func tablesEqual(a, b map[string]map[int64]minidb.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for name, rowsA := range a {
		rowsB, ok := b[name]
		if !ok || len(rowsA) != len(rowsB) {
			return false
		}
		for id, ra := range rowsA {
			rb, ok := rowsB[id]
			if !ok || !rowsEqual(ra, rb) {
				return false
			}
		}
	}
	return true
}

func rowsEqual(a, b minidb.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !minidb.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func describe(t map[string]map[int64]minidb.Row) string {
	out := ""
	for _, name := range tableNames {
		out += fmt.Sprintf("%s:%d rows ", name, len(t[name]))
	}
	return out
}
