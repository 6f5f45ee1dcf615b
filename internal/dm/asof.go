package dm

import (
	"fmt"

	"repro/internal/archive"
	"repro/internal/lake"
	"repro/internal/schema"
)

// Time travel (§3.1): reprocessing old observations against the archive
// *as it was*. An AsOfView pins the node archive's commit journal at
// one commit, so HLE re-derivation jobs read the exact raw bytes the
// original derivation saw — even while ingest, compaction and GC keep
// rewriting the head. The pin is durable (a journal record), so a crashed
// reprocessing job resumes against the same snapshot after restart.
//
// Query-cache interplay: as-of reads must never be served from the
// epoch-keyed query cache — its entries describe the catalog at the
// CURRENT epoch, not at the pinned commit. Name resolution here therefore
// goes through d.query (a direct engine read, bypassing cachedQuery by
// construction) and the file bytes come from the pinned lake view, never
// from Archive.Read at head. The location tables themselves are append-
// mostly and paths are write-once, so a live resolve plus pinned bytes
// yields bit-identical reprocessing input.

// AsOfView is a session-scoped read-only view of the node's archive as of
// one commit.
type AsOfView struct {
	d    *DM
	s    *Session
	view *lake.View
}

// AsOf opens the catalog as of commit (0 = current head) for the session.
func (d *DM) AsOf(s *Session, commit uint64) (*AsOfView, error) {
	if s == nil {
		return nil, errDenied("as-of read", "catalog")
	}
	arch, err := d.mountedArchive()
	if err != nil {
		return nil, err
	}
	if !arch.Online() {
		return nil, archive.ErrOffline
	}
	v, err := arch.Lake().OpenAt(commit)
	if err != nil {
		return nil, err
	}
	d.stats.AsOfOpens.Add(1)
	d.logOp("info", "asof", "session %s pinned commit %d (token %s)", s.User, v.Seq(), v.Token())
	return &AsOfView{d: d, s: s, view: v}, nil
}

// AsOfAttach resumes a view over a pin that survived a restart (the pin
// token came from a previous AsOf's View.Token, e.g. recorded in a
// reprocessing job's checkpoint).
func (d *DM) AsOfAttach(s *Session, token string) (*AsOfView, error) {
	if s == nil {
		return nil, errDenied("as-of read", "catalog")
	}
	arch, err := d.mountedArchive()
	if err != nil {
		return nil, err
	}
	v, err := arch.Lake().AttachPin(token)
	if err != nil {
		return nil, err
	}
	return &AsOfView{d: d, s: s, view: v}, nil
}

// Commit returns the pinned commit; Token the durable pin token.
func (v *AsOfView) Commit() uint64 { return v.view.Seq() }

// Token returns the durable pin token (checkpoint it to resume after a
// restart via AsOfAttach).
func (v *AsOfView) Token() string { return v.view.Token() }

// ReadItem resolves an item id and reads its bytes as of the pinned
// commit.
func (v *AsOfView) ReadItem(itemID string) ([]byte, *ResolvedName, error) {
	rn, err := v.d.Resolve(itemID, schema.NameFile)
	if err != nil {
		return nil, nil, err
	}
	if !v.d.mayRead(v.s, rn.Owner, rn.Public) {
		v.d.stats.AccessDenied.Add(1)
		return nil, nil, errDenied("read", itemID)
	}
	data, err := v.view.Read(rn.Path)
	if err != nil {
		return nil, nil, err
	}
	v.d.stats.AsOfReads.Add(1)
	v.d.stats.BytesRead.Add(int64(len(data)))
	return data, rn, nil
}

// ReadPath reads an archive-relative path directly from the pinned view
// (for callers that already resolved the name, e.g. the bench driver).
func (v *AsOfView) ReadPath(rel string) ([]byte, error) {
	data, err := v.view.Read(rel)
	if err == nil {
		v.d.stats.AsOfReads.Add(1)
	}
	return data, err
}

// List returns the member paths live as of the pinned commit.
func (v *AsOfView) List() []string { return v.view.List() }

// Close releases the durable pin, letting GC pass the commit again.
func (v *AsOfView) Close() error { return v.view.Close() }

// LakeMaintenance runs one compaction + GC round on the archive's journal,
// bounded by its durable pin set: a Remove is a tombstone whose bytes (and
// capacity) only this reclaims. keepHistory limits how far GC may advance:
// the horizon moves at most to head-keepHistory commits (so operators keep
// a time-travel window even with no pins open). An offline archive is
// skipped.
func (d *DM) LakeMaintenance(opts lake.CompactOptions, keepHistory uint64) error {
	a := d.arch.Load()
	if a == nil || !a.Online() {
		return nil
	}
	lk := a.Lake()
	cr, err := lk.Compact(opts)
	var gr lake.GCResult
	if err == nil {
		target := lk.Head()
		if target > keepHistory {
			target -= keepHistory
		} else {
			target = 0
		}
		gr, err = lk.GC(target)
	}
	if cr.Seq != 0 || gr.Deleted > 0 {
		d.logOp("info", "lake", "%s: %s; %s", a.ID(), cr, gr)
	}
	if err != nil {
		return fmt.Errorf("dm: lake maintenance of archive %s: %w", a.ID(), err)
	}
	return nil
}
