package dm

import (
	"fmt"
	"path"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wavelet"
)

// Parallel ingest (process layer). LoadUnit performs its ~30 database
// operations one transaction at a time; loading a mission day that way
// serializes CPU-heavy derivation (gzip packaging, wavelet transforms,
// event detection) behind one fsync per tuple. LoadUnits restructures the
// same workflow as a two-stage pipeline:
//
//	derive workers (CPU): dup-check, gzip-FITS packaging, wavelet views,
//	    event detection          -- embarrassingly parallel, no writes
//	        | bounded channel (backpressure)
//	store workers (I/O): archive files, then THREE batched transactions
//	    per unit -- location entries (meta), domain tuples (raw unit +
//	    views + HLEs + catalog members), lineage (meta)
//
// Store workers commit concurrently, so the engine's group-commit path
// merges their batches into shared fsyncs; over dbnet each batch is one
// round trip. Id allocation is bulk (nextIDs), one sequence claim per
// block instead of one per id. The derived tuples, rows and archive
// layout are identical to LoadUnit's — only the transaction boundaries
// and scheduling differ.

// derivedUnit is the output of the CPU stage for one unit.
type derivedUnit struct {
	u          *telemetry.Unit
	unitID     string
	raw        []byte // gzip-FITS archive representation
	views      []*wavelet.View
	detections []analysis.Detection
}

// LoadUnits ingests many raw units through the parallel pipeline. workers
// bounds both stages (<=0 means GOMAXPROCS). Reports are returned in input
// order; on error the first failure is returned together with the reports
// of the units that completed before the pipeline drained (failed or
// skipped slots are nil).
func (d *DM) LoadUnits(units []*telemetry.Unit, workers int) ([]*LoadReport, error) {
	if len(units) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	// Referential context checked once, not once per detection: the shared
	// catalogs must exist (Bootstrap creates them).
	sys := d.systemSession()
	if _, err := d.getCatalog(sys, ExtendedCat); err != nil {
		return nil, err
	}
	if _, err := d.getCatalog(sys, StandardCat); err != nil {
		return nil, err
	}

	type job struct {
		idx int
		u   *telemetry.Unit
	}
	type derived struct {
		idx int
		dv  *derivedUnit
	}

	var (
		failed  atomic.Bool
		errMu   sync.Mutex
		loadErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if loadErr == nil {
			loadErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}

	// The store stage is not CPU-bound: it spends its time waiting on fsyncs
	// (archive files, WAL group commits) or on dbnet round trips, all of
	// which overlap across goroutines even on a single core. Run it wider
	// than the CPU stage so those waits actually overlap.
	storeWorkers := 4 * workers
	if storeWorkers > 16 {
		storeWorkers = 16
	}
	if storeWorkers > len(units) {
		storeWorkers = len(units)
	}

	jobs := make(chan job)
	derivedCh := make(chan derived, storeWorkers) // bounded: backpressure on the CPU stage
	reports := make([]*LoadReport, len(units))

	var deriveWG, storeWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		deriveWG.Add(1)
		go func() {
			defer deriveWG.Done()
			for j := range jobs {
				if failed.Load() {
					continue
				}
				dv, err := d.deriveUnit(j.u)
				if err != nil {
					setErr(err)
					continue
				}
				derivedCh <- derived{idx: j.idx, dv: dv}
			}
		}()
	}
	for w := 0; w < storeWorkers; w++ {
		storeWG.Add(1)
		go func() {
			defer storeWG.Done()
			for dr := range derivedCh {
				if failed.Load() {
					continue
				}
				rep, err := d.storeUnit(dr.dv)
				if err != nil {
					setErr(err)
					continue
				}
				reports[dr.idx] = rep
			}
		}()
	}
	for i, u := range units {
		jobs <- job{idx: i, u: u}
	}
	close(jobs)
	deriveWG.Wait()
	close(derivedCh)
	storeWG.Wait()

	var loaded, photons, events int
	for _, r := range reports {
		if r == nil {
			continue
		}
		loaded++
		photons += r.Photons
		events += r.Events
	}
	d.logOp("info", "load", "bulk: %d/%d units, %d photons, %d events (%d workers)",
		loaded, len(units), photons, events, workers)
	return reports, loadErr
}

// deriveUnit is the CPU stage: everything LoadUnit computes before its
// first write, for one unit, with no database mutations.
func (d *DM) deriveUnit(u *telemetry.Unit) (*derivedUnit, error) {
	d.stats.Requests.Add(1)
	unitID := u.Name()
	if res, err := d.query(minidb.Query{
		Table: schema.TableRawUnits, Count: true,
		Where: []minidb.Pred{{Col: "unit_id", Op: minidb.OpEq, Val: minidb.S(unitID)}},
	}); err != nil {
		return nil, err
	} else if res.Count > 0 {
		return nil, fmt.Errorf("dm: unit %s already loaded", unitID)
	}
	raw, err := u.PackGz()
	if err != nil {
		return nil, err
	}
	views := wavelet.PartitionViews(u.Photons, u.TStart, u.TStop,
		telemetry.EnergyMin, telemetry.EnergyMax,
		ViewPartitions, ViewTimeBins, ViewEnergyBins, ViewKeep)
	detections := analysis.DetectEvents(u.Photons, u.TStart, u.TStop, analysis.DetectConfig{})
	return &derivedUnit{u: u, unitID: unitID, raw: raw, views: views, detections: detections}, nil
}

// idNum extracts the numeric part of a "prefix-n" identifier.
func idNum(id string) int64 {
	var n int64
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '-' {
			fmt.Sscanf(id[i+1:], "%d", &n)
			break
		}
	}
	return n
}

// storeUnit is the I/O stage: archive the derived files, then commit the
// unit's tuples in three batched transactions (location entries; domain
// tuples; lineage). Rows match LoadUnit's exactly. Compensation
// mirrors the serial path: a failed domain commit removes the archive
// files and the location entries that reference them.
func (d *DM) storeUnit(dv *derivedUnit) (*LoadReport, error) {
	arch := d.archives.Get(d.defArch)
	if arch == nil {
		return nil, fmt.Errorf("dm: default archive %q not registered", d.defArch)
	}
	u := dv.u
	nItems := 1 + len(dv.views)
	nEvents := len(dv.detections)
	flares := 0
	for _, det := range dv.detections {
		if det.KindHint == "flare" {
			flares++
		}
	}
	// Bulk id allocation: one claim per prefix block, not one per id.
	itemIDs, err := d.nextIDs("item", nItems)
	if err != nil {
		return nil, err
	}
	locIDs, err := d.nextIDs("loc", 2*nItems)
	if err != nil {
		return nil, err
	}
	hleIDs, err := d.nextIDs("hle", nEvents)
	if err != nil {
		return nil, err
	}
	memIDs, err := d.nextIDs("mem", nEvents+flares)
	if err != nil {
		return nil, err
	}
	linIDs, err := d.nextIDs("lin", 1+nEvents)
	if err != nil {
		return nil, err
	}

	// 1. Archive files first — durable before anything references them
	// (same contract as StoreItemFiles).
	type stored struct {
		itemID  string
		relPath string
		format  string
		size    int64
	}
	files := make([]stored, 0, nItems)
	data := make([][]byte, 0, nItems)
	files = append(files, stored{itemID: itemIDs[0], relPath: path.Join("fits.gz", itemIDs[0]+".fits.gz"), format: "fits.gz", size: int64(len(dv.raw))})
	data = append(data, dv.raw)
	for i, v := range dv.views {
		enc := v.Enc.Bytes()
		files = append(files, stored{itemID: itemIDs[1+i], relPath: path.Join("wavelet", itemIDs[1+i]+".wav"), format: "wavelet", size: int64(len(enc))})
		data = append(data, enc)
	}
	removeFiles := func(upto int) {
		for i := 0; i < upto; i++ {
			_ = arch.Remove(files[i].relPath)
		}
	}
	batch := make([]archive.BatchFile, len(files))
	for i, f := range files {
		batch[i] = archive.BatchFile{Rel: f.relPath, Day: int64(u.Day), Data: data[i]}
	}
	// One bulk store: one container fsync plus one journal commit for the
	// unit's whole file group, instead of a commit per file.
	if err := arch.StoreBatch(batch); err != nil {
		return nil, fmt.Errorf("dm: store files for %s: %w", dv.unitID, err)
	}

	// When every table routes to the same engine (single-database
	// deployment — the common case), the whole unit commits as ONE
	// transaction: one WAL fsync, one wire round trip, and no compensation
	// path, since the location entries, domain tuples and lineage become
	// all-or-nothing together. With split meta/domain engines the unit
	// commits in three batches with the serial path's compensation.
	metaDB := d.routeDB(schema.TableLocEntries)
	domDB := d.routeDB(schema.TableRawUnits)
	combined := metaDB == domDB

	// 2. Location entries: one meta transaction for the whole unit.
	var locBatch, dom minidb.Batch
	locB := &locBatch
	if combined {
		locB = &dom
	}
	for i, f := range files {
		for j, nameType := range []string{schema.NameFile, schema.NameURL} {
			locB.Insert(schema.TableLocEntries, minidb.Row{
				minidb.I(idNum(locIDs[2*i+j])), minidb.S(f.itemID), minidb.S(nameType),
				minidb.S(arch.ID()), minidb.S(f.relPath),
				minidb.I(f.size), minidb.S(f.format),
				minidb.S(ImportUser), minidb.Bo(true),
			})
		}
	}
	var locRowIDs []int64
	if !combined {
		locRowIDs, err = metaDB.Apply(&locBatch)
		if err != nil {
			removeFiles(len(files))
			return nil, err
		}
		d.stats.Edits.Add(int64(locBatch.Len()))
	}
	d.stats.FilesStored.Add(int64(len(files)))
	for _, f := range files {
		d.stats.BytesStored.Add(f.size)
	}

	// 3. Domain tuples: raw unit, views, detected HLEs and their catalog
	// memberships — one domain transaction.
	now := nowSecs()
	report := &LoadReport{
		UnitID: dv.unitID, ItemID: itemIDs[0],
		Photons: len(u.Photons), RawBytes: int64(len(dv.raw)),
		Views: len(dv.views), Events: nEvents,
	}
	dom.Insert(schema.TableRawUnits, minidb.Row{
		minidb.S(dv.unitID), minidb.I(int64(u.Day)), minidb.I(int64(u.Seq)),
		minidb.F(u.TStart), minidb.F(u.TStop), minidb.I(int64(len(u.Photons))),
		minidb.I(1), minidb.S(itemIDs[0]),
	})
	for i, v := range dv.views {
		dom.Insert(schema.TableViews, minidb.Row{
			minidb.S(fmt.Sprintf("%s-v%02d", dv.unitID, i)), minidb.S(dv.unitID),
			minidb.F(v.TStart), minidb.F(v.TStop),
			minidb.F(v.EMin), minidb.F(v.EMax),
			minidb.I(int64(v.TimeBins)), minidb.I(int64(v.EnergyBins)),
			minidb.F(ViewKeep), minidb.S(itemIDs[1+i]),
		})
	}
	mem := 0
	addMember := func(catalogID, hleID string) {
		dom.Insert(schema.TableCatalogMembers, minidb.Row{
			minidb.I(idNum(memIDs[mem])), minidb.S(catalogID), minidb.S(hleID),
			minidb.S(ImportUser), minidb.F(now),
		})
		mem++
	}
	for k, det := range dv.detections {
		h := &schema.HLE{
			ID: hleIDs[k], Version: 1, Owner: ImportUser, Public: true,
			Label:    fmt.Sprintf("%s %s t=%.0fs", dv.unitID, det.KindHint, det.TStart),
			KindHint: det.KindHint,
			TStart:   det.TStart, TStop: det.TStop,
			EMin: telemetry.EnergyMin, EMax: telemetry.EnergyMax,
			PeakRate: det.PeakRate, TotalCounts: det.TotalCounts,
			Background: det.Background, Significance: det.Significance,
			UnitID: dv.unitID, Day: int64(u.Day), Quality: 3,
			Origin: "auto", CalibVersion: 1,
			Created: now, Modified: now,
		}
		dom.Insert(schema.TableHLE, h.ToRow())
		addMember(ExtendedCat, hleIDs[k])
		if det.KindHint == "flare" {
			addMember(StandardCat, hleIDs[k])
		}
		report.HLEs = append(report.HLEs, hleIDs[k])
	}
	// 4. Lineage — best-effort in split mode, atomic with the rest of the
	// unit in combined mode.
	var meta2 minidb.Batch
	metaB := &meta2
	if combined {
		metaB = &dom
	}
	metaB.Insert(schema.TableLineage, minidb.Row{
		minidb.I(idNum(linIDs[0])), minidb.S(dv.unitID), minidb.Null(), minidb.S("load"),
		minidb.I(1), minidb.F(now), minidb.S(fmt.Sprintf("%d photons", len(u.Photons))),
	})
	for k := range dv.detections {
		metaB.Insert(schema.TableLineage, minidb.Row{
			minidb.I(idNum(linIDs[1+k])), minidb.S(hleIDs[k]), minidb.S(dv.unitID), minidb.S("create"),
			minidb.I(1), minidb.F(now), minidb.S("hle by " + ImportUser),
		})
	}
	msg := fmt.Sprintf("unit %s: %d photons, %d views, %d events",
		dv.unitID, report.Photons, report.Views, report.Events)

	if combined {
		// One transaction for the entire unit.
		if _, err := domDB.Apply(&dom); err != nil {
			removeFiles(len(files))
			return nil, err
		}
		d.stats.Edits.Add(int64(dom.Len()))
	} else {
		if _, err := domDB.Apply(&dom); err != nil {
			// Compensation: delete the location entries, then the files.
			var undo minidb.Batch
			for _, rid := range locRowIDs {
				undo.Delete(schema.TableLocEntries, rid)
			}
			_, _ = metaDB.Apply(&undo)
			removeFiles(len(files))
			return nil, err
		}
		d.stats.Edits.Add(int64(dom.Len()))
		if _, err := d.routeDB(schema.TableLineage).Apply(&meta2); err == nil {
			d.stats.Edits.Add(int64(meta2.Len()))
		}
	}
	d.stats.EventsDetected.Add(int64(nEvents))
	d.stats.UnitsLoaded.Add(1)
	d.logger.Printf("[%s] info load: %s", d.node, msg)
	return report, nil
}
