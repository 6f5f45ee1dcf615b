package dm

import (
	"fmt"
	"path"

	"repro/internal/archive"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// Dynamic name mapping (§4.3). Every file reference in the domain schema is
// an item id; the location tables resolve it on demand to a concrete name
// of the form [type][root][path][item_id]. "The cost of this dynamic name
// construction is two extra database queries on an indexed field" — exactly
// the two queries Resolve issues — and the payoff is that administrators
// relocate files by editing location tuples, at run time, without touching
// a single tuple in the domain part of the schema.

// ResolvedName is the outcome of name construction.
type ResolvedName struct {
	ItemID    string
	NameType  string // file | tuple | url
	ArchiveID string
	Path      string // archive-relative path
	Full      string // assembled [root][path] name
	Bytes     int64
	Format    string
	Transform string // decode step the format requires (gunzip, ...)
	Owner     string
	Public    bool
}

// StoredFile describes one file to attach to an item.
type StoredFile struct {
	Suffix string // appended to the item id to form the path, e.g. ".gif"
	Format string // fits.gz | gif | wavelet | log | params
	Data   []byte
}

// StoreItemFiles stores the files of a new item in the default archive and
// registers location entries for them (one file entry and one URL entry
// each). Item ids are allocated by the caller so entity tuples can
// reference them. On any failure, previously stored files are removed —
// the compensation the DM's transactional entity handling requires (§4.4).
//
// Durability contract: archive.Store fsyncs both the container holding
// the bytes and its journal record before returning, and the
// location-entry transaction is sealed by a redo-log fsync before this
// method returns — so once StoreItemFiles acknowledges, a crash at any
// later instant loses neither the bytes nor the name mapping. A crash *during* the call leaves at most
// orphaned archive files (never location entries pointing at missing
// data), because files are made durable strictly before the entries that
// reference them. internal/torture enumerates every crash point of this
// path and verifies both halves of the contract.
func (d *DM) StoreItemFiles(itemID, owner string, public bool, files []StoredFile) (err error) {
	arch := d.archives.Get(d.defArch)
	if arch == nil {
		return fmt.Errorf("dm: default archive %q not registered", d.defArch)
	}
	var storedPaths []string
	defer func() {
		if err != nil {
			for _, p := range storedPaths {
				_ = arch.Remove(p)
			}
		}
	}()
	type pending struct {
		relPath string
		f       StoredFile
		ids     [2]int64 // pre-allocated entry ids (file + url)
	}
	var pendings []pending
	for _, f := range files {
		relPath := path.Join(f.Format, itemID+f.Suffix)
		if err = arch.Store(relPath, f.Data); err != nil {
			return fmt.Errorf("dm: store %s: %w", relPath, err)
		}
		storedPaths = append(storedPaths, relPath)
		p := pending{relPath: relPath, f: f}
		// Allocate entry ids BEFORE the transaction: the allocator itself
		// talks to the database and must not run under the entity lock.
		for i := range p.ids {
			id, idErr := d.nextID("loc")
			if idErr != nil {
				return idErr
			}
			fmt.Sscanf(id, "loc-%d", &p.ids[i])
		}
		pendings = append(pendings, p)
	}
	err = d.exec(schema.TableLocEntries, func(tx minidb.Tx) error {
		for _, p := range pendings {
			for i, nameType := range []string{schema.NameFile, schema.NameURL} {
				if _, insErr := tx.Insert(schema.TableLocEntries, minidb.Row{
					minidb.I(p.ids[i]), minidb.S(itemID), minidb.S(nameType),
					minidb.S(arch.ID()), minidb.S(p.relPath),
					minidb.I(int64(len(p.f.Data))), minidb.S(p.f.Format),
					minidb.S(owner), minidb.Bo(public),
				}); insErr != nil {
					return insErr
				}
				d.stats.Edits.Add(1)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.stats.FilesStored.Add(int64(len(files)))
	for _, f := range files {
		d.stats.BytesStored.Add(int64(len(f.Data)))
	}
	return nil
}

// Resolve performs dynamic name construction for one item: query the
// location entries by item id, pick the entry of the requested name type,
// then query the archive-location table for the current [path] root —
// two indexed queries.
func (d *DM) Resolve(itemID, nameType string) (*ResolvedName, error) {
	d.stats.NameLookups.Add(1)
	entries, err := d.query(minidb.Query{ // query 1: indexed on item_id
		Table: schema.TableLocEntries,
		Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
	})
	if err != nil {
		return nil, err
	}
	var picked minidb.Row
	for _, row := range entries.Rows {
		if row[2].Str() == nameType {
			picked = row
			break
		}
	}
	if picked == nil {
		return nil, fmt.Errorf("dm: item %s has no %s name", itemID, nameType)
	}
	rn := &ResolvedName{
		ItemID:    itemID,
		NameType:  nameType,
		ArchiveID: picked[3].Str(),
		Path:      picked[4].Str(),
		Bytes:     picked[5].Int(),
		Format:    picked[6].Str(),
		Owner:     picked[7].Str(),
		Public:    picked[8].Bool(),
	}
	archRes, err := d.query(minidb.Query{ // query 2: indexed (primary key)
		Table: schema.TableLocArchives,
		Where: []minidb.Pred{{Col: "archive_id", Op: minidb.OpEq, Val: minidb.S(rn.ArchiveID)}},
	})
	if err != nil {
		return nil, err
	}
	root := ""
	if len(archRes.Rows) > 0 {
		root = archRes.Rows[0][2].Str()
	}
	switch nameType {
	case schema.NameFile:
		rn.Full = path.Join(root, rn.Path)
	case schema.NameURL:
		rn.Full = d.urlRoot + "/dl/" + itemID
	case schema.NameTuple:
		rn.Full = "tuple:" + rn.Path
	}
	if t, ok := d.transformFor(rn.Format); ok {
		rn.Transform = t
	}
	return rn, nil
}

// transformFor consults the location transform table (cached-free: the
// table is tiny and the query is a primary-key lookup).
func (d *DM) transformFor(format string) (string, bool) {
	res, err := d.query(minidb.Query{
		Table: schema.TableLocTransforms,
		Where: []minidb.Pred{{Col: "format", Op: minidb.OpEq, Val: minidb.S(format)}},
	})
	if err != nil || len(res.Rows) == 0 {
		return "", false
	}
	return res.Rows[0][1].Str(), true
}

// ReadItem resolves and reads the file behind an item id, enforcing the
// item's visibility against the session.
func (d *DM) ReadItem(s *Session, itemID string) ([]byte, *ResolvedName, error) {
	rn, arch, err := d.openItem(s, itemID)
	if err != nil {
		return nil, nil, err
	}
	data, err := d.readResolved(arch, rn)
	if err != nil {
		return nil, nil, err
	}
	return data, rn, nil
}

// openItem is everything ReadItem does short of touching the archive:
// name resolution, the visibility check and the mounted-archive lookup.
func (d *DM) openItem(s *Session, itemID string) (*ResolvedName, *archive.Archive, error) {
	rn, err := d.Resolve(itemID, schema.NameFile)
	if err != nil {
		return nil, nil, err
	}
	if !d.mayRead(s, rn.Owner, rn.Public) {
		d.stats.AccessDenied.Add(1)
		return nil, nil, errDenied("read", itemID)
	}
	arch := d.archives.Get(rn.ArchiveID)
	if arch == nil {
		return nil, nil, fmt.Errorf("dm: archive %s not mounted", rn.ArchiveID)
	}
	return rn, arch, nil
}

// readResolved reads a resolved item's bytes and counts the archive read.
func (d *DM) readResolved(arch *archive.Archive, rn *ResolvedName) ([]byte, error) {
	data, err := arch.Read(rn.Path)
	if err != nil {
		return nil, err
	}
	d.stats.FilesRead.Add(1)
	d.stats.BytesRead.Add(int64(len(data)))
	return data, nil
}

// readDecoded returns item itemID decoded, through the decoded-item cache.
// A hit still pays openItem — a relocated, hidden, unmapped or unmounted
// item behaves exactly as under ReadItem — and skips only the archive read
// and decode (which returns the value and its resident size). Concurrent
// misses on one item decode it once; a failed decode is not cached and an
// item larger than the budget is returned, not cached. The value is shared
// with other callers: read it, never write it.
func (d *DM) readDecoded(s *Session, itemID string, decode func(data []byte) (any, int64, error)) (any, error) {
	rn, arch, err := d.openItem(s, itemID)
	if err != nil {
		return nil, err
	}
	v, hit, err := d.decoded.Do(itemID, struct{}{}, func() (any, int64, error) {
		d.stats.UnitCacheMisses.Add(1)
		data, err := d.readResolved(arch, rn)
		if err != nil {
			return nil, 0, err
		}
		return decode(data)
	})
	if hit {
		d.stats.UnitCacheHits.Add(1)
		return v, nil
	}
	// Only a load admits or evicts. The lock orders the mirror, so the last
	// store is of the latest Stats.
	d.decodedMu.Lock()
	st := d.decoded.Stats()
	d.stats.UnitCacheEvictions.Store(st.Evictions)
	d.stats.UnitCacheBytes.Store(st.Cost)
	d.decodedMu.Unlock()
	return v, err
}

// RegisterArchive mounts an archive and records it in both the operational
// archive table and the location-archive table.
func (d *DM) RegisterArchive(a *archive.Archive, pathRoot string) error {
	if err := d.archives.Add(a); err != nil {
		return err
	}
	err := d.exec(schema.TableArchives, func(tx minidb.Tx) error {
		if _, err := tx.Insert(schema.TableArchives, minidb.Row{
			minidb.S(a.ID()), minidb.S(a.Kind().String()), minidb.S("online"),
			minidb.I(a.CapacityLeft()), minidb.S(a.Root()),
		}); err != nil {
			return err
		}
		_, err := tx.Insert(schema.TableLocArchives, minidb.Row{
			minidb.S(a.ID()), minidb.S(a.Kind().String()), minidb.S(pathRoot), minidb.S("online"),
		})
		return err
	})
	if err == nil {
		d.stats.Edits.Add(2)
	}
	return err
}

// RelocateItem moves an item's file to another archive by copying the data
// and then updating only the location tuples — the domain schema is not
// touched, and the system keeps running (§4.3). If anything fails after the
// copy, the copy is removed (compensation, §5.2).
func (d *DM) RelocateItem(itemID, toArchive string) error {
	rn, err := d.Resolve(itemID, schema.NameFile)
	if err != nil {
		return err
	}
	if rn.ArchiveID == toArchive {
		return nil
	}
	src := d.archives.Get(rn.ArchiveID)
	dst := d.archives.Get(toArchive)
	if src == nil || dst == nil {
		return fmt.Errorf("dm: relocate %s: archive not mounted", itemID)
	}
	if err := archive.Copy(src, dst, rn.Path); err != nil {
		return fmt.Errorf("dm: relocate %s: %w", itemID, err)
	}
	err = d.exec(schema.TableLocEntries, func(tx minidb.Tx) error {
		res, qerr := tx.Query(minidb.Query{
			Table: schema.TableLocEntries,
			Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
		})
		if qerr != nil {
			return qerr
		}
		for i, row := range res.Rows {
			if row[3].Str() != rn.ArchiveID {
				continue
			}
			updated := row.Clone()
			updated[3] = minidb.S(toArchive)
			if uerr := tx.Update(schema.TableLocEntries, res.RowIDs[i], updated); uerr != nil {
				return uerr
			}
			d.stats.Edits.Add(1)
		}
		return nil
	})
	if err != nil {
		_ = dst.Remove(rn.Path) // compensate: drop the copy
		return err
	}
	if err := src.Remove(rn.Path); err != nil {
		d.logOp("warn", "relocate", "source %s on %s not removed: %v", rn.Path, rn.ArchiveID, err)
	}
	_ = d.recordLineage(itemID, "", "migrate", 0, rn.ArchiveID+" -> "+toArchive)
	d.logOp("info", "relocate", "item %s moved %s -> %s", itemID, rn.ArchiveID, toArchive)
	return nil
}
