package dm

import (
	"repro/internal/colseg"
	"repro/internal/minidb"
)

// Analytics serves a catalog-wide aggregate query through the read-optimized
// path. Resolution order for the runner:
//
//  1. Options.Analytics — a colseg.Store maintained next to the database
//     (or any other Runner, e.g. a networked client shipping the query to
//     the node that holds the segments).
//  2. The routed engine itself, when it implements colseg.Runner (a
//     dbnet.Client forwards the query over the wire to the server's store).
//  3. colseg.RunRows over the routed engine — always correct, never fast.
//
// Results go through the same read-through cache as cachedQuery, under
// ("ana|" + query fingerprint, table commit epoch): identical concurrent
// misses run the query once.
func (d *DM) Analytics(q colseg.Query) (*colseg.Result, error) {
	d.stats.Requests.Add(1)
	d.stats.AnalyticsQueries.Add(1)
	db := d.routeDB(q.Table)
	epoch := epochOf(db, minidb.Query{Table: q.Table})
	v, err := d.readThrough("ana|"+colseg.Fingerprint(q), epoch, &d.stats.AnalyticsCacheHits, func() (any, error) {
		var res *colseg.Result
		var err error
		if d.analytics != nil {
			res, err = d.analytics.RunAnalytics(q)
		} else if r, ok := db.(colseg.Runner); ok {
			res, err = r.RunAnalytics(q)
		} else {
			res, err = colseg.RunRows(db, q)
		}
		if err != nil {
			return nil, err
		}
		if res.Stats.Vectorized {
			d.stats.AnalyticsVector.Add(1)
		} else {
			d.stats.AnalyticsRowFall.Add(1)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*colseg.Result), nil
}

// AnalyticsRunner exposes the resolved runner for diagnostics (the web tier
// type-asserts it to surface segment-store statistics on /stats).
func (d *DM) AnalyticsRunner() colseg.Runner {
	if d.analytics != nil {
		return d.analytics
	}
	if r, ok := d.domain.(colseg.Runner); ok {
		return r
	}
	return nil
}
