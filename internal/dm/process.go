package dm

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/fits"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wavelet"
)

// Process layer (§5.2): workflows combining I/O-layer operations with
// semantic-layer services — raw data preparation, event filtering, entity
// association and catalog generation. Data loading implements §2.2's
// pipeline: raw units are stored, searched "for interesting events, using
// programs that detect a wider range of events such as solar flares, gamma
// ray bursts, or quiet periods", analyzed into catalog entries, and
// pre-processed into wavelet-compressed range-partitioned views (§3.4).

// Well-known ids created by Bootstrap.
const (
	ImportUser     = "import"
	StandardCat    = "cat-standard"
	ExtendedCat    = "cat-extended"
	ViewPartitions = 4
	ViewTimeBins   = 64
	ViewEnergyBins = 16
	ViewKeep       = 0.15
)

// systemSession returns the internal context used by loading and other
// background processes; its tuples are owned by the import user
// ("HEDC's catalogs, e.g., contain tuples created by an import user, and
// are later made public", §5.5).
func (d *DM) systemSession() *Session {
	return &Session{
		Token: "system", User: ImportUser, Group: GroupAdmin,
		Rights: map[string]bool{
			RightBrowse: true, RightDownload: true, RightAnalyze: true, RightUpload: true,
		},
		Kind: SessionHLE,
	}
}

// Bootstrap seeds a fresh repository: the import user, name-mapping roots
// and transforms, and the standard + extended catalogs. It is idempotent.
func (d *DM) Bootstrap(importPassword string) error {
	if res, err := d.query(minidb.Query{
		Table: schema.TableUsers, Count: true,
		Where: []minidb.Pred{{Col: "user_id", Op: minidb.OpEq, Val: minidb.S(ImportUser)}},
	}); err != nil {
		return err
	} else if res.Count > 0 {
		return nil // already bootstrapped
	}
	if err := d.CreateUser(ImportUser, importPassword, GroupAdmin,
		RightBrowse, RightDownload, RightAnalyze, RightUpload); err != nil {
		return err
	}
	err := d.exec(schema.TableLocRoots, func(tx minidb.Tx) error {
		for _, r := range [][2]string{
			{schema.NameFile, ""},
			{schema.NameURL, d.urlRoot},
			{schema.NameTuple, "hedc"},
		} {
			if _, err := tx.Insert(schema.TableLocRoots, minidb.Row{minidb.S(r[0]), minidb.S(r[1])}); err != nil {
				return err
			}
		}
		for _, tr := range [][3]string{
			{"fits.gz", "gunzip", "gzip-compressed FITS raw unit"},
			{"wavelet", "wavelet-decode", "compressed range-partitioned view"},
			{"gif", "none", "rendered analysis image"},
			{"log", "none", "process log"},
			{"params", "none", "analysis parameter record"},
		} {
			if _, err := tx.Insert(schema.TableLocTransforms, minidb.Row{
				minidb.S(tr[0]), minidb.S(tr[1]), minidb.S(tr[2]),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sys := d.systemSession()
	mk := func(wantID, name, kind, desc string) error {
		id, err := d.CreateCatalog(sys, name, kind, desc, true)
		if err != nil {
			return err
		}
		// Rewrite to the well-known id so clients can hard-link to it.
		res, err := d.query(minidb.Query{
			Table: schema.TableCatalog,
			Where: []minidb.Pred{{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S(id)}},
		})
		if err != nil || len(res.Rows) == 0 {
			return fmt.Errorf("dm: bootstrap catalog %s: %v", name, err)
		}
		row := res.Rows[0].Clone()
		row[0] = minidb.S(wantID)
		return d.routeDB(schema.TableCatalog).Update(schema.TableCatalog, res.RowIDs[0], row)
	}
	if err := mk(StandardCat, "Standard catalog", "standard",
		"events flagged during pre-processing at the ground station"); err != nil {
		return err
	}
	if err := mk(ExtendedCat, "Extended catalog", "extended",
		"events found by HEDC's wider-ranging detection programs"); err != nil {
		return err
	}
	d.logOp("info", "bootstrap", "repository initialized")
	return nil
}

// LoadReport summarizes one raw-unit load.
type LoadReport struct {
	UnitID   string
	ItemID   string
	Photons  int
	RawBytes int64
	Views    int
	Events   int
	HLEs     []string
}

// LoadUnit ingests one raw-data unit: the gzip-FITS file is archived with
// location entries, a raw_units tuple is created, wavelet views are
// pre-computed, and detection programs populate the catalogs.
func (d *DM) LoadUnit(u *telemetry.Unit) (*LoadReport, error) {
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

	// 1. Archive the raw file (pooled gzip writer: see telemetry.PackGz).
	raw, err := u.PackGz()
	if err != nil {
		return nil, err
	}
	itemID, err := d.nextID("item")
	if err != nil {
		return nil, err
	}
	if err := d.StoreItemFiles(itemID, ImportUser, true, []StoredFile{
		{Suffix: ".fits.gz", Format: "fits.gz", Data: raw},
	}); err != nil {
		return nil, err
	}

	// 2. The raw_units tuple.
	err = d.exec(schema.TableRawUnits, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableRawUnits, minidb.Row{
			minidb.S(unitID), minidb.I(int64(u.Day)), minidb.I(int64(u.Seq)),
			minidb.F(u.TStart), minidb.F(u.TStop), minidb.I(int64(len(u.Photons))),
			minidb.I(1), minidb.S(itemID),
		})
		return err
	})
	if err != nil {
		d.dropItem(itemID)
		return nil, err
	}
	d.stats.Edits.Add(1)
	_ = d.recordLineage(unitID, "", "load", 1, fmt.Sprintf("%d photons", len(u.Photons)))

	report := &LoadReport{
		UnitID: unitID, ItemID: itemID,
		Photons: len(u.Photons), RawBytes: int64(len(raw)),
	}

	// 3. Wavelet views (§3.4 pre-processing).
	views := wavelet.PartitionViews(u.Photons, u.TStart, u.TStop,
		telemetry.EnergyMin, telemetry.EnergyMax,
		ViewPartitions, ViewTimeBins, ViewEnergyBins, ViewKeep)
	for i, v := range views {
		viewItem, err := d.nextID("item")
		if err != nil {
			return nil, err
		}
		if err := d.StoreItemFiles(viewItem, ImportUser, true, []StoredFile{
			{Suffix: ".wav", Format: "wavelet", Data: v.Enc.Bytes()},
		}); err != nil {
			return nil, err
		}
		viewID := fmt.Sprintf("%s-v%02d", unitID, i)
		err = d.exec(schema.TableViews, func(tx minidb.Tx) error {
			_, err := tx.Insert(schema.TableViews, minidb.Row{
				minidb.S(viewID), minidb.S(unitID),
				minidb.F(v.TStart), minidb.F(v.TStop),
				minidb.F(v.EMin), minidb.F(v.EMax),
				minidb.I(int64(v.TimeBins)), minidb.I(int64(v.EnergyBins)),
				minidb.F(ViewKeep), minidb.S(viewItem),
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		d.stats.Edits.Add(1)
		report.Views++
	}

	// 4. Detection programs populate the catalogs (§2.2): flares join the
	// standard and extended catalogs, everything else the extended one.
	sys := d.systemSession()
	detections := analysis.DetectEvents(u.Photons, u.TStart, u.TStop, analysis.DetectConfig{})
	for _, det := range detections {
		h := &schema.HLE{
			Version: 1, Public: true,
			Label:    fmt.Sprintf("%s %s t=%.0fs", unitID, det.KindHint, det.TStart),
			KindHint: det.KindHint,
			TStart:   det.TStart, TStop: det.TStop,
			EMin: telemetry.EnergyMin, EMax: telemetry.EnergyMax,
			PeakRate: det.PeakRate, TotalCounts: det.TotalCounts,
			Background: det.Background, Significance: det.Significance,
			UnitID: unitID, Day: int64(u.Day), Quality: 3,
			Origin: "auto", CalibVersion: 1,
		}
		hleID, err := d.CreateHLE(sys, h)
		if err != nil {
			return nil, err
		}
		if err := d.AddToCatalog(sys, ExtendedCat, hleID); err != nil {
			return nil, err
		}
		if det.KindHint == "flare" {
			if err := d.AddToCatalog(sys, StandardCat, hleID); err != nil {
				return nil, err
			}
		}
		report.Events++
		report.HLEs = append(report.HLEs, hleID)
		d.stats.EventsDetected.Add(1)
	}
	d.stats.UnitsLoaded.Add(1)
	d.logOp("info", "load", "unit %s: %d photons, %d views, %d events",
		unitID, report.Photons, report.Views, report.Events)
	return report, nil
}

// UnitInfo is a raw_units row in struct form.
type UnitInfo struct {
	UnitID       string
	Day          int64
	Seq          int64
	TStart       float64
	TStop        float64
	Photons      int64
	CalibVersion int64
	ItemID       string
}

// overlapping is the predicate pair of rows whose [tstart, tstop) window
// overlaps [t0, t1).
func overlapping(t0, t1 float64) []minidb.Pred {
	return []minidb.Pred{
		{Col: "tstart", Op: minidb.OpLt, Val: minidb.F(t1)},
		{Col: "tstop", Op: minidb.OpGt, Val: minidb.F(t0)},
	}
}

// UnitsInRange lists loaded units whose windows overlap [t0, t1), by start
// time and then unit id.
func (d *DM) UnitsInRange(t0, t1 float64) ([]*UnitInfo, error) {
	res, err := d.query(minidb.Query{Table: schema.TableRawUnits, Where: overlapping(t0, t1)})
	if err != nil {
		return nil, err
	}
	out := make([]*UnitInfo, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, &UnitInfo{
			UnitID: row[0].Str(), Day: row[1].Int(), Seq: row[2].Int(),
			TStart: row[3].Float(), TStop: row[4].Float(),
			Photons: row[5].Int(), CalibVersion: row[6].Int(), ItemID: row[7].Str(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TStart != out[j].TStart {
			return out[i].TStart < out[j].TStart
		}
		return out[i].UnitID < out[j].UnitID
	})
	return out, nil
}

// rawUnit is a decoded raw unit as the decoded-item cache holds it.
type rawUnit struct {
	recs   []byte // fits.PhotonRecordSize-byte photon records, sorted by time
	gzSize int64  // length of the archived .fits.gz, what a read of it costs
}

// decodeRawUnit inflates and parses an archived raw unit into its photon
// record table. Units are written time-sorted; one that is not (or that
// carries NaN time tags, which no window can match) is repaired here, once,
// so that window extraction can binary-search every entry.
func decodeRawUnit(data []byte) (*rawUnit, error) {
	var f *fits.File
	err := telemetry.WithGzipReader(data, func(r io.Reader) error {
		var derr error
		f, derr = fits.Decode(r)
		return derr
	})
	if err != nil {
		return nil, err
	}
	u, err := telemetry.ParseUnit(f)
	if err != nil {
		return nil, err
	}
	recs := f.HDUs[1].Data
	sorted, prev := true, math.Inf(-1)
	for _, p := range u.Photons {
		if !(p.Time >= prev) { // false for a NaN too
			sorted = false
			break
		}
		prev = p.Time
	}
	if !sorted {
		kept := u.Photons[:0]
		for _, p := range u.Photons {
			if p.Time == p.Time {
				kept = append(kept, p)
			}
		}
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].Time < kept[j].Time })
		recs = fits.EncodePhotons(kept).Data
	}
	return &rawUnit{recs: recs, gzSize: int64(len(data))}, nil
}

// RawPhotons reads and decodes the raw units overlapping [t0, t1),
// returning the photons within the window in time order (ties: by unit
// start, unit id, then position in the unit). This is the I/O path the
// processing tests stress: the caller never sees file formats or archive
// locations (§2.3). Units come through the decoded-item cache; the second
// result is the compressed bytes of the units consulted, cached or not.
// The returned slice is the caller's own.
func (d *DM) RawPhotons(s *Session, t0, t1 float64) ([]fits.Photon, int64, error) {
	units, err := d.UnitsInRange(t0, t1)
	if err != nil {
		return nil, 0, err
	}
	var bytesRead int64
	var runs [][]byte // per unit, the records inside the window
	total := 0
	for _, u := range units {
		v, err := d.readDecoded(s, u.ItemID, func(data []byte) (any, int64, error) {
			ru, err := decodeRawUnit(data)
			if err != nil {
				return nil, 0, fmt.Errorf("dm: unit %s: %w", u.UnitID, err)
			}
			return ru, int64(len(ru.recs)), nil
		})
		if err != nil {
			return nil, 0, err
		}
		ru, ok := v.(*rawUnit)
		if !ok {
			return nil, 0, fmt.Errorf("dm: unit %s: item %s is not a raw unit", u.UnitID, u.ItemID)
		}
		bytesRead += ru.gzSize
		n := len(ru.recs) / fits.PhotonRecordSize
		lo := sort.Search(n, func(i int) bool { return fits.PhotonTimeAt(ru.recs, i) >= t0 })
		hi := lo + sort.Search(n-lo, func(i int) bool { return fits.PhotonTimeAt(ru.recs, lo+i) >= t1 })
		if hi > lo {
			runs = append(runs, ru.recs[lo*fits.PhotonRecordSize:hi*fits.PhotonRecordSize])
			total += hi - lo
		}
	}
	return mergeRuns(runs, total), bytesRead, nil
}

// mergeRuns merges time-sorted photon record runs holding total records
// into one new time-sorted slice; on equal times the earlier run wins.
// Windows span a handful of units, so the smallest head is found by a
// linear scan. No in-window time tag is +Inf (the window's end is
// exclusive), which makes +Inf the mark of an exhausted run.
func mergeRuns(runs [][]byte, total int) []fits.Photon {
	if total == 0 {
		return nil
	}
	out := make([]fits.Photon, 0, total)
	pos := make([]int, len(runs))
	head := make([]float64, len(runs))
	for j, r := range runs {
		head[j] = fits.PhotonTimeAt(r, 0)
	}
	for len(out) < total {
		best := 0
		for j := 1; j < len(head); j++ {
			if head[j] < head[best] {
				best = j
			}
		}
		out = append(out, fits.PhotonAt(runs[best], pos[best]))
		pos[best]++
		if pos[best]*fits.PhotonRecordSize < len(runs[best]) {
			head[best] = fits.PhotonTimeAt(runs[best], pos[best])
		} else {
			head[best] = math.Inf(1)
		}
	}
	return out
}

// ViewsInRange returns the stored wavelet views overlapping [t0, t1),
// decoded and ready for approximated analysis. The encodings come through
// the decoded-item cache and are shared: read them, never write them.
func (d *DM) ViewsInRange(s *Session, t0, t1 float64) ([]*wavelet.View, error) {
	res, err := d.query(minidb.Query{Table: schema.TableViews, Where: overlapping(t0, t1)})
	if err != nil {
		return nil, err
	}
	var out []*wavelet.View
	for _, row := range res.Rows {
		v, err := d.readDecoded(s, row[9].Str(), func(data []byte) (any, int64, error) {
			enc, err := wavelet.Parse(data)
			return enc, int64(len(data)), err
		})
		if err != nil {
			return nil, err
		}
		enc, ok := v.(*wavelet.Encoded)
		if !ok {
			return nil, fmt.Errorf("dm: view %s: item %s is not a wavelet view", row[0].Str(), row[9].Str())
		}
		out = append(out, &wavelet.View{
			TStart: row[2].Float(), TStop: row[3].Float(),
			EMin: row[4].Float(), EMax: row[5].Float(),
			TimeBins: int(row[6].Int()), EnergyBins: int(row[7].Int()),
			Enc: enc,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TStart < out[j].TStart })
	return out, nil
}

// Recalibrate bumps a unit's calibration version — "it is to be expected
// that the raw data will be recalibrated several times. Accordingly, the
// raw data and all the derived data based on it must be versioned" (§3.1).
// Dependent HLEs are marked with the new version so analyses can be
// selectively recomputed.
func (d *DM) Recalibrate(unitID, reason string) (int64, error) {
	d.stats.Requests.Add(1)
	res, err := d.query(minidb.Query{
		Table: schema.TableRawUnits,
		Where: []minidb.Pred{{Col: "unit_id", Op: minidb.OpEq, Val: minidb.S(unitID)}},
	})
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, fmt.Errorf("dm: no such unit %s", unitID)
	}
	row := res.Rows[0].Clone()
	newVersion := row[6].Int() + 1
	row[6] = minidb.I(newVersion)

	vid, err := d.nextID("ver")
	if err != nil {
		return 0, err
	}
	var vn int64
	fmt.Sscanf(vid, "ver-%d", &vn)

	hles, err := d.query(minidb.Query{
		Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "unit_id", Op: minidb.OpEq, Val: minidb.S(unitID)}},
	})
	if err != nil {
		return 0, err
	}

	// The unit bump, the version record and every dependent-HLE flag are all
	// domain tuples — one atomic batch, one commit, one fsync, instead of
	// the 2+N transactions the serial form issued.
	var b minidb.Batch
	b.Update(schema.TableRawUnits, res.RowIDs[0], row)
	b.Insert(schema.TableVersions, minidb.Row{
		minidb.I(vn), minidb.S("unit"), minidb.S(unitID),
		minidb.I(newVersion), minidb.F(nowSecs()), minidb.S(reason),
	})
	for i, hrow := range hles.Rows {
		updated := hrow.Clone()
		updated[1] = minidb.I(newVersion) // version
		updated[22] = minidb.F(nowSecs()) // modified
		b.Update(schema.TableHLE, hles.RowIDs[i], updated)
	}
	if _, err := d.routeDB(schema.TableRawUnits).Apply(&b); err != nil {
		return 0, err
	}
	d.stats.Edits.Add(int64(b.Len()))
	_ = d.recordLineage(unitID, "", "recalibrate", newVersion, reason)
	d.logOp("info", "recalibrate", "unit %s -> v%d (%d HLEs flagged): %s",
		unitID, newVersion, len(hles.Rows), reason)
	return newVersion, nil
}

// StaleAnalyses lists committed analyses whose calibration version lags the
// unit they were computed from — the recomputation work-list of §3.1.
func (d *DM) StaleAnalyses(s *Session) ([]*schema.ANA, error) {
	d.stats.Requests.Add(1)
	res, err := d.query(minidb.Query{
		Table: schema.TableANA,
		Where: []minidb.Pred{{Col: "status", Op: minidb.OpEq, Val: minidb.S(schema.AnaCommitted)}},
		Or:    visibilityOr(s),
	})
	if err != nil {
		return nil, err
	}
	var out []*schema.ANA
	for _, row := range res.Rows {
		a, err := schema.ANAFromRow(row)
		if err != nil {
			return nil, err
		}
		h, err := d.GetHLE(s, a.HLEID)
		if err != nil {
			continue
		}
		if h.Version > a.CalibVersion {
			out = append(out, a)
		}
	}
	return out, nil
}
