package dm

import (
	"fmt"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// Semantic layer (§5.2): entity services over the domain schema with access
// rules, referential consistency and data-dependency checks. All reads
// carry the session's visibility filter; all writes check ownership.

// HLEFilter narrows QueryHLEs. Zero values mean "no constraint".
type HLEFilter struct {
	Kind      string // kind_hint equality
	Owner     string // owner equality
	Day       int64  // mission day (use HasDay)
	HasDay    bool
	TimeFrom  float64 // tstart range (use HasTime)
	TimeTo    float64
	HasTime   bool
	Catalog   string // restrict to members of this catalog
	OrderDesc bool   // order by tstart descending
	Offset    int
	Limit     int
}

func (f HLEFilter) toQuery(s *Session) minidb.Query {
	q := minidb.Query{
		Table:   schema.TableHLE,
		Or:      visibilityOr(s),
		OrderBy: []minidb.Order{{Col: "tstart", Desc: f.OrderDesc}},
		Offset:  f.Offset,
		Limit:   f.Limit,
	}
	if f.Kind != "" {
		q.Where = append(q.Where, minidb.Pred{Col: "kind_hint", Op: minidb.OpEq, Val: minidb.S(f.Kind)})
	}
	if f.Owner != "" {
		q.Where = append(q.Where, minidb.Pred{Col: "owner", Op: minidb.OpEq, Val: minidb.S(f.Owner)})
	}
	if f.HasDay {
		q.Where = append(q.Where, minidb.Pred{Col: "day", Op: minidb.OpEq, Val: minidb.I(f.Day)})
	}
	if f.HasTime {
		q.Where = append(q.Where, minidb.Pred{
			Col: "tstart", Op: minidb.OpBetween, Val: minidb.F(f.TimeFrom), Hi: minidb.F(f.TimeTo),
		})
	}
	return q
}

// QueryHLEs returns the visible events matching the filter.
func (d *DM) QueryHLEs(s *Session, f HLEFilter) ([]*schema.HLE, error) {
	d.stats.Requests.Add(1)
	if !s.Has(RightBrowse) {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("browse", schema.TableHLE)
	}
	if f.Catalog != "" {
		return d.catalogHLEs(s, f)
	}
	res, err := d.query(f.toQuery(s))
	if err != nil {
		return nil, err
	}
	out := make([]*schema.HLE, 0, len(res.Rows))
	for _, row := range res.Rows {
		h, err := schema.HLEFromRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// CountHLEs returns the number of visible events matching the filter.
// Counts are served from the epoch-keyed cache: repeated identical counts
// between commits to the HLE table cost no engine query.
func (d *DM) CountHLEs(s *Session, f HLEFilter) (int, error) {
	d.stats.Requests.Add(1)
	q := f.toQuery(s)
	q.Count = true
	q.OrderBy, q.Offset, q.Limit = nil, 0, 0
	res, err := d.cachedQuery(q)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// GetHLE fetches one event by id, enforcing visibility.
func (d *DM) GetHLE(s *Session, id string) (*schema.HLE, error) {
	d.stats.Requests.Add(1)
	// Point reads are the hottest catalog path. Against a sharded engine
	// they go through the cache: per-shard epochs mean a commit on another
	// shard is not an invalidation, so entries stay warm under mixed load.
	// Against a single engine the table-level epoch would evict them on
	// every hle write anyway, so the uncached path keeps the §7.2 page
	// anatomy (7 queries per browse request) exactly as calibrated.
	q := minidb.Query{
		Table: schema.TableHLE,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(id)}},
	}
	var res *minidb.Result
	var err error
	if _, sharded := d.routeDB(q.Table).(queryEpocher); sharded {
		res, err = d.cachedQuery(q)
	} else {
		res, err = d.query(q)
	}
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("dm: no such HLE %s", id)
	}
	h, err := schema.HLEFromRow(res.Rows[0])
	if err != nil {
		return nil, err
	}
	if !d.mayRead(s, h.Owner, h.Public) {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("read", id)
	}
	return h, nil
}

// CreateHLE inserts a new event owned by the session user. Events start
// private (§5.5: "By default all derived data belongs to the user who
// creates it and is considered private").
func (d *DM) CreateHLE(s *Session, h *schema.HLE) (string, error) {
	d.stats.Requests.Add(1)
	if s == nil || !s.Has(RightAnalyze) && !s.Has(RightUpload) {
		d.stats.AccessDenied.Add(1)
		return "", errDenied("create", schema.TableHLE)
	}
	id, err := d.nextID("hle")
	if err != nil {
		return "", err
	}
	h.ID = id
	h.Owner = s.User
	if !s.Super() {
		h.Public = false
	}
	if h.Origin == "" {
		h.Origin = "user"
	}
	h.Created = nowSecs()
	h.Modified = h.Created
	err = d.exec(schema.TableHLE, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableHLE, h.ToRow())
		return err
	})
	if err != nil {
		return "", err
	}
	d.stats.Edits.Add(1)
	_ = d.recordLineage(id, h.UnitID, "create", h.Version, "hle by "+s.User)
	return id, nil
}

// AnalysesForHLE lists the visible analyses attached to an event.
func (d *DM) AnalysesForHLE(s *Session, hleID string) ([]*schema.ANA, error) {
	d.stats.Requests.Add(1)
	res, err := d.query(minidb.Query{
		Table: schema.TableANA,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(hleID)}},
		Or:    visibilityOr(s),
	})
	if err != nil {
		return nil, err
	}
	out := make([]*schema.ANA, 0, len(res.Rows))
	for _, row := range res.Rows {
		a, err := schema.ANAFromRow(row)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// GetANA fetches one analysis by id, enforcing visibility.
func (d *DM) GetANA(s *Session, id string) (*schema.ANA, error) {
	d.stats.Requests.Add(1)
	res, err := d.query(minidb.Query{
		Table: schema.TableANA,
		Where: []minidb.Pred{{Col: "ana_id", Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("dm: no such analysis %s", id)
	}
	a, err := schema.ANAFromRow(res.Rows[0])
	if err != nil {
		return nil, err
	}
	if !d.mayRead(s, a.Owner, a.Public) {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("read", id)
	}
	return a, nil
}

// FindExistingAnalysis implements the §3.5 redundant-work check: before
// running an analysis, HEDC "can check whether this has already been done
// and, if that is the case, offer the available results as an alternative".
// Two analyses match when type and the scientific parameters coincide.
func (d *DM) FindExistingAnalysis(s *Session, spec *schema.ANA) (*schema.ANA, error) {
	d.stats.Requests.Add(1)
	res, err := d.query(minidb.Query{
		Table: schema.TableANA,
		Where: []minidb.Pred{
			{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(spec.HLEID)},
			{Col: "type", Op: minidb.OpEq, Val: minidb.S(spec.Type)},
			{Col: "status", Op: minidb.OpEq, Val: minidb.S(schema.AnaCommitted)},
		},
		Or: visibilityOr(s),
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		a, err := schema.ANAFromRow(row)
		if err != nil {
			return nil, err
		}
		if a.TStart == spec.TStart && a.TStop == spec.TStop &&
			a.EMin == spec.EMin && a.EMax == spec.EMax &&
			a.TimeBins == spec.TimeBins && a.EnergyBins == spec.EnergyBins &&
			a.ImageSize == spec.ImageSize && a.ApproxFrac == spec.ApproxFrac &&
			a.CalibVersion == spec.CalibVersion {
			return a, nil
		}
	}
	return nil, nil
}

// ImportAnalysis stores an analysis entity: its files (image, log,
// parameters) go to the archive with location entries, its tuple into the
// domain schema — one transactional unit with compensation (§4.4).
// The referenced HLE must exist and be visible (referential integrity).
func (d *DM) ImportAnalysis(s *Session, a *schema.ANA, files []StoredFile) (string, error) {
	d.stats.Requests.Add(1)
	if s == nil || !(s.Has(RightAnalyze) || s.Has(RightUpload)) {
		d.stats.AccessDenied.Add(1)
		return "", errDenied("import", schema.TableANA)
	}
	if _, err := d.GetHLE(s, a.HLEID); err != nil {
		return "", fmt.Errorf("dm: analysis references %s: %w", a.HLEID, err)
	}
	id, err := d.nextID("ana")
	if err != nil {
		return "", err
	}
	a.ID = id
	a.Owner = s.User
	if !s.Super() {
		a.Public = false
	}
	if a.Status == "" {
		a.Status = schema.AnaCommitted
	}
	if a.Created == 0 {
		a.Created = nowSecs()
	}

	// Store files first (cheap to compensate), then the tuple.
	if len(files) > 0 {
		itemID, err := d.nextID("item")
		if err != nil {
			return "", err
		}
		if err := d.StoreItemFiles(itemID, a.Owner, a.Public, files); err != nil {
			return "", err
		}
		a.ItemID = itemID
		var out int64
		for _, f := range files {
			out += int64(len(f.Data))
		}
		if a.OutputBytes == 0 {
			a.OutputBytes = out
		}
	}
	err = d.exec(schema.TableANA, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableANA, a.ToRow())
		return err
	})
	if err != nil {
		// Compensation: the tuple failed, remove the files and entries.
		if a.ItemID != "" {
			d.dropItem(a.ItemID)
		}
		return "", err
	}
	d.stats.Edits.Add(1)
	_ = d.recordLineage(id, a.HLEID, "create", a.Version, "ana "+a.Type+" by "+s.User)
	return id, nil
}

// dropItem removes an item's files and location entries (compensation).
func (d *DM) dropItem(itemID string) {
	res, err := d.query(minidb.Query{
		Table: schema.TableLocEntries,
		Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
	})
	if err != nil {
		return
	}
	removed := map[string]bool{}
	for i, row := range res.Rows {
		archID, p := row[3].Str(), row[4].Str()
		key := archID + "\x00" + p
		if !removed[key] {
			if arch := d.archives.Get(archID); arch != nil {
				_ = arch.Remove(p)
			}
			removed[key] = true
		}
		_ = d.routeDB(schema.TableLocEntries).Delete(schema.TableLocEntries, res.RowIDs[i])
	}
}

// Publish flips an entity (hle or ana) to public. Owner or super only.
func (d *DM) Publish(s *Session, kind, id string) error {
	d.stats.Requests.Add(1)
	table, pk, ownerCol, publicCol := entityTable(kind)
	if table == "" {
		return fmt.Errorf("dm: unknown entity kind %q", kind)
	}
	res, err := d.query(minidb.Query{
		Table: table,
		Where: []minidb.Pred{{Col: pk, Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("dm: no such %s %s", kind, id)
	}
	row := res.Rows[0]
	if !d.mayEdit(s, row[ownerCol].Str()) {
		d.stats.AccessDenied.Add(1)
		return errDenied("publish", id)
	}
	updated := row.Clone()
	updated[publicCol] = minidb.Bo(true)
	if err := d.routeDB(table).Update(table, res.RowIDs[0], updated); err != nil {
		return err
	}
	d.stats.Edits.Add(1)
	// Files attached to the entity become public too.
	itemCol := -1
	for i, c := range d.routeDB(table).Schema(table).Columns {
		if c.Name == "item_id" {
			itemCol = i
		}
	}
	if itemCol >= 0 && row[itemCol].Str() != "" {
		d.publishItem(row[itemCol].Str())
	}
	return nil
}

func (d *DM) publishItem(itemID string) {
	res, err := d.query(minidb.Query{
		Table: schema.TableLocEntries,
		Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
	})
	if err != nil {
		return
	}
	for i, row := range res.Rows {
		updated := row.Clone()
		updated[8] = minidb.Bo(true)
		if d.routeDB(schema.TableLocEntries).Update(schema.TableLocEntries, res.RowIDs[i], updated) == nil {
			d.stats.Edits.Add(1)
		}
	}
}

func entityTable(kind string) (table, pk string, ownerCol, publicCol int) {
	switch kind {
	case "hle":
		return schema.TableHLE, "hle_id", 2, 3
	case "ana":
		return schema.TableANA, "ana_id", 5, 6
	}
	return "", "", 0, 0
}

// DeleteHLE removes an event. Integrity constraint (§5.3): "tuples
// belonging to an entity may not be deleted if data dependencies exist" —
// an HLE with analyses or catalog memberships is not deletable.
func (d *DM) DeleteHLE(s *Session, id string) error {
	d.stats.Requests.Add(1)
	h, err := d.GetHLE(s, id)
	if err != nil {
		return err
	}
	if !d.mayEdit(s, h.Owner) {
		d.stats.AccessDenied.Add(1)
		return errDenied("delete", id)
	}
	deps, err := d.freshQuery(minidb.Query{
		Table: schema.TableANA, Count: true,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return err
	}
	if deps.Count > 0 {
		return fmt.Errorf("dm: HLE %s has %d dependent analyses", id, deps.Count)
	}
	members, err := d.freshQuery(minidb.Query{
		Table: schema.TableCatalogMembers, Count: true,
		Where: []minidb.Pred{{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return err
	}
	if members.Count > 0 {
		return fmt.Errorf("dm: HLE %s appears in %d catalogs", id, members.Count)
	}
	return d.deleteByPK(schema.TableHLE, "hle_id", id)
}

// DeleteANA removes an analysis and its files. Owner or super only.
func (d *DM) DeleteANA(s *Session, id string) error {
	d.stats.Requests.Add(1)
	a, err := d.GetANA(s, id)
	if err != nil {
		return err
	}
	if !d.mayEdit(s, a.Owner) {
		d.stats.AccessDenied.Add(1)
		return errDenied("delete", id)
	}
	if err := d.deleteByPK(schema.TableANA, "ana_id", id); err != nil {
		return err
	}
	if a.ItemID != "" {
		d.dropItem(a.ItemID)
	}
	return nil
}

func (d *DM) deleteByPK(table, pk, id string) error {
	res, err := d.query(minidb.Query{
		Table: table,
		Where: []minidb.Pred{{Col: pk, Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return err
	}
	if len(res.RowIDs) == 0 {
		return fmt.Errorf("dm: no such row %s in %s", id, table)
	}
	if err := d.routeDB(table).Delete(table, res.RowIDs[0]); err != nil {
		return err
	}
	d.stats.Edits.Add(1)
	return nil
}

// Catalog is a named grouping of HLEs: private workspaces and the shared
// standard/extended catalogs (§3.3, §4.1).
type Catalog struct {
	ID          string
	Name        string
	Owner       string
	Public      bool
	Kind        string // standard | extended | private
	Description string
	Created     float64
	Members     int
}

// CreateCatalog makes a new catalog owned by the session user.
func (d *DM) CreateCatalog(s *Session, name, kind, description string, public bool) (string, error) {
	d.stats.Requests.Add(1)
	if s == nil {
		d.stats.AccessDenied.Add(1)
		return "", errDenied("create", schema.TableCatalog)
	}
	public = public && s.Super() // only admins create shared catalogs directly
	id, err := d.nextID("cat")
	if err != nil {
		return "", err
	}
	err = d.exec(schema.TableCatalog, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableCatalog, minidb.Row{
			minidb.S(id), minidb.S(name), minidb.S(s.User), minidb.Bo(public),
			minidb.S(kind), minidb.S(description), minidb.F(nowSecs()),
		})
		return err
	})
	if err != nil {
		return "", err
	}
	d.stats.Edits.Add(1)
	return id, nil
}

// catalogMembersView is the materialized count view behind catalog member
// counts — the §6.3 summary-query optimization. Created lazily.
const catalogMembersView = "catalog_member_counts"

func (d *DM) ensureCatalogView() error {
	d.viewOnce.Do(func() {
		d.viewErr = d.routeDB(schema.TableCatalogMembers).CreateCountView(
			catalogMembersView, schema.TableCatalogMembers, "catalog_id")
	})
	return d.viewErr
}

// ListCatalogs returns the catalogs visible to the session with member
// counts served from a materialized count view (§6.3) instead of one
// count query per catalog.
func (d *DM) ListCatalogs(s *Session) ([]*Catalog, error) {
	d.stats.Requests.Add(1)
	if err := d.ensureCatalogView(); err != nil {
		return nil, err
	}
	res, err := d.query(minidb.Query{
		Table:   schema.TableCatalog,
		Or:      visibilityOr(s),
		OrderBy: []minidb.Order{{Col: "catalog_id"}},
	})
	if err != nil {
		return nil, err
	}
	db := d.routeDB(schema.TableCatalogMembers)
	out := make([]*Catalog, 0, len(res.Rows))
	for _, row := range res.Rows {
		c := &Catalog{
			ID: row[0].Str(), Name: row[1].Str(), Owner: row[2].Str(),
			Public: row[3].Bool(), Kind: row[4].Str(),
			Description: row[5].Str(), Created: row[6].Float(),
		}
		n, err := db.ViewCount(catalogMembersView, minidb.S(c.ID))
		if err != nil {
			return nil, err
		}
		c.Members = n
		out = append(out, c)
	}
	return out, nil
}

// CatalogMemberCount returns a catalog's membership size from the
// materialized count view (§6.3).
func (d *DM) CatalogMemberCount(catalogID string) (int, error) {
	if err := d.ensureCatalogView(); err != nil {
		return 0, err
	}
	return d.routeDB(schema.TableCatalogMembers).ViewCount(catalogMembersView, minidb.S(catalogID))
}

// AddToCatalog links an HLE into a catalog. Referential integrity: both
// must exist and be visible; the catalog must be editable by the caller.
func (d *DM) AddToCatalog(s *Session, catalogID, hleID string) error {
	d.stats.Requests.Add(1)
	cat, err := d.getCatalog(s, catalogID)
	if err != nil {
		return err
	}
	if !d.mayEdit(s, cat.Owner) {
		d.stats.AccessDenied.Add(1)
		return errDenied("edit", catalogID)
	}
	if _, err := d.GetHLE(s, hleID); err != nil {
		return fmt.Errorf("dm: catalog member: %w", err)
	}
	// No duplicates. Cached: bulk catalog loads re-check the same pair
	// shape repeatedly, and any insert bumps the members epoch. Fresh: a
	// stale zero would insert the pair twice.
	dup, err := d.freshQuery(minidb.Query{
		Table: schema.TableCatalogMembers, Count: true,
		Where: []minidb.Pred{
			{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S(catalogID)},
			{Col: "hle_id", Op: minidb.OpEq, Val: minidb.S(hleID)},
		},
	})
	if err != nil {
		return err
	}
	if dup.Count > 0 {
		return nil // already a member; idempotent
	}
	id, err := d.nextID("mem")
	if err != nil {
		return err
	}
	var n int64
	fmt.Sscanf(id, "mem-%d", &n)
	user := "system"
	if s != nil {
		user = s.User
	}
	err = d.exec(schema.TableCatalogMembers, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableCatalogMembers, minidb.Row{
			minidb.I(n), minidb.S(catalogID), minidb.S(hleID), minidb.S(user), minidb.F(nowSecs()),
		})
		return err
	})
	if err == nil {
		d.stats.Edits.Add(1)
	}
	return err
}

func (d *DM) getCatalog(s *Session, id string) (*Catalog, error) {
	res, err := d.query(minidb.Query{
		Table: schema.TableCatalog,
		Where: []minidb.Pred{{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S(id)}},
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("dm: no such catalog %s", id)
	}
	row := res.Rows[0]
	c := &Catalog{
		ID: row[0].Str(), Name: row[1].Str(), Owner: row[2].Str(),
		Public: row[3].Bool(), Kind: row[4].Str(),
		Description: row[5].Str(), Created: row[6].Float(),
	}
	if !d.mayRead(s, c.Owner, c.Public) {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("read", id)
	}
	return c, nil
}

// catalogHLEs returns visible HLEs that are members of the filter's catalog.
// The visible member list is one cache entry per (catalog, visibility
// clause). It depends on the membership rows and on the member events' rows
// (who may read them, what they say), so its epoch folds both tables'
// epochs: a warm page pays those few epoch reads instead of one per member.
// Kind, offset and limit apply afterwards, to copies: cached values are
// shared.
func (d *DM) catalogHLEs(s *Session, f HLEFilter) ([]*schema.HLE, error) {
	if _, err := d.getCatalog(s, f.Catalog); err != nil {
		return nil, err
	}
	mq := minidb.Query{
		Table: schema.TableCatalogMembers,
		Where: []minidb.Pred{{Col: "catalog_id", Op: minidb.OpEq, Val: minidb.S(f.Catalog)}},
	}
	hq := minidb.Query{Table: schema.TableHLE}
	epoch := minidb.FoldEpochs(epochOf(d.routeDB(mq.Table), mq), epochOf(d.routeDB(hq.Table), hq))
	key := "cat|" + fingerprint(minidb.Query{Table: mq.Table, Where: mq.Where, Or: visibilityOr(s)})
	v, err := d.readThrough(key, epoch, &d.stats.QueryCacheHits, func() (any, error) {
		d.stats.QueryCacheMisses.Add(1)
		members, err := d.cachedQuery(mq)
		if err != nil {
			return nil, err
		}
		var visible []schema.HLE
		for _, row := range members.Rows {
			h, err := d.GetHLE(s, row[2].Str())
			if err != nil {
				if IsDenied(err) {
					continue // member visible to others, not to this session
				}
				return nil, err
			}
			visible = append(visible, *h)
		}
		return visible, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*schema.HLE
	skip := f.Offset
	for _, h := range v.([]schema.HLE) {
		if f.Kind != "" && h.KindHint != f.Kind {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
		out = append(out, &h)
	}
	return out, nil
}
