// Package web is HEDC's thin-client presentation tier: dynamically
// generated HTML pages over the DM API, plus dynamic images resolved
// through name mapping. "The basic interface to HEDC is through a Web
// browser. The pages needed for this purpose are generated by the DM
// component" (§6.1).
//
// The server programs against dm.API, so it works identically whether the
// DM executes locally or on another node through call redirection (§5.4).
// Analysis submission goes through the PL frontend when one is attached.
package web

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/gif"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/colseg"
	"repro/internal/dataviz"
	"repro/internal/dm"
	"repro/internal/epochcache"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/synoptic"
)

const sessionCookie = "hedc_token"

// Config wires a web server.
type Config struct {
	API      dm.API
	Frontend *pl.Frontend       // nil disables server-side processing
	LocalDM  *dm.DM             // nil disables PL submission (sessions can't be resolved)
	Synoptic *synoptic.Searcher // nil disables the synoptic search page
	Cluster  *cluster.Gateway   // nil unless this node fronts a replica cluster
	Node     string
}

// Stats counts presentation-tier activity.
type Stats struct {
	Pages      atomic.Int64
	Images     atomic.Int64
	HTMLBytes  atomic.Int64
	ImageBytes atomic.Int64
	Errors     atomic.Int64
}

// Server renders the HEDC web interface.
type Server struct {
	cfg   Config
	stats Stats

	jobsMu sync.Mutex
	jobs   map[string]*pl.Ticket
	jobSeq int64

	logoGIF []byte
}

// New builds a web server over the given middle tier.
func New(cfg Config) *Server {
	if cfg.Node == "" {
		cfg.Node = "web-0"
	}
	return &Server{cfg: cfg, jobs: make(map[string]*pl.Ticket), logoGIF: makeLogo()}
}

// Stats exposes the counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/catalog", s.handleCatalog)
	mux.HandleFunc("/hle", s.handleHLE)
	mux.HandleFunc("/ana", s.handleANA)
	mux.HandleFunc("/browse", s.handleBrowse)
	mux.HandleFunc("/search", s.handleBrowse) // free-form search shares the form
	mux.HandleFunc("/synoptic", s.handleSynoptic)
	mux.HandleFunc("/viz", s.handleViz)
	mux.HandleFunc("/viz/density.gif", s.handleVizImage(true))
	mux.HandleFunc("/viz/extent.gif", s.handleVizImage(false))
	mux.HandleFunc("/img/", s.handleImage)
	mux.HandleFunc("/dl/", s.handleDownload)
	mux.HandleFunc("/static/logo.gif", s.handleLogo)
	mux.HandleFunc("/login", s.handleLogin)
	mux.HandleFunc("/logout", s.handleLogout)
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/job", s.handleJob)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// statRow and statSection feed the /stats template.
type statRow struct {
	Name  string
	Value string
}

type statSection struct {
	Title string
	Rows  []statRow
}

// handleStats renders the node's operational counters: web tier, DM
// semantic layer (with the epoch-keyed query cache hit rate) and the
// storage engines' snapshot/commit statistics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	n := func(v int64) string { return strconv.FormatInt(v, 10) }
	data := struct {
		base
		Sections []statSection
	}{base: s.baseData(r, "Node statistics")}

	ws := &s.stats
	data.Sections = append(data.Sections, statSection{Title: "Web tier", Rows: []statRow{
		{"pages rendered", n(ws.Pages.Load())},
		{"images served", n(ws.Images.Load())},
		{"HTML bytes", n(ws.HTMLBytes.Load())},
		{"image bytes", n(ws.ImageBytes.Load())},
		{"errors", n(ws.Errors.Load())},
	}})

	// Processing farm: frontend outcomes, work-stealing scheduler
	// behaviour (steals, preemptions, speculative hedges) and the
	// epoch-keyed result cache, plus the per-manager interpreter pools.
	if fe := s.cfg.Frontend; fe != nil {
		fs := fe.FarmStats()
		rows := []statRow{
			{"requests submitted", n(fs.Frontend.Submitted)},
			{"committed / delivered", fmt.Sprintf("%d / %d", fs.Frontend.Committed, fs.Frontend.Delivered)},
			{"failed / canceled", fmt.Sprintf("%d / %d", fs.Frontend.Failed, fs.Frontend.Canceled)},
			{"in system / queued", fmt.Sprintf("%d / %d", fs.Frontend.InSystem, fs.Frontend.Queued)},
			{"tasks dispatched", n(fs.Sched.Dispatched)},
			{"local runs / steals", fmt.Sprintf("%d / %d", fs.Sched.LocalRuns, fs.Sched.Steals)},
			{"preemptions", n(fs.Sched.Preemptions)},
			{"hedges launched", n(fs.Sched.HedgesLaunched)},
			{"hedges won / lost", fmt.Sprintf("%d / %d", fs.Sched.HedgesWon, fs.Sched.HedgesLost)},
			{"result cache hits / misses", fmt.Sprintf("%d / %d", fs.Memo.Hits, fs.Memo.Misses)},
			occupancyRow("result cache", fs.Memo),
		}
		if fs.Memo.Hits+fs.Memo.Misses > 0 {
			rows = append(rows, statRow{"result cache hit rate",
				fmt.Sprintf("%.1f%%", 100*fs.Memo.HitRate())})
		}
		for _, m := range fs.Managers {
			rows = append(rows, statRow{
				"manager " + m.ID,
				fmt.Sprintf("%d servers, %d invocations, %d timeouts, %d recoveries, %.1fs busy",
					m.Servers, m.Invocations, m.Timeouts, m.Recoveries, m.BusySeconds),
			})
		}
		data.Sections = append(data.Sections, statSection{Title: "Processing farm", Rows: rows})
	}

	if gw := s.cfg.Cluster; gw != nil {
		st := gw.Status()
		rows := []statRow{
			{"requests shed", n(st.Shed)},
			{"failovers", n(st.Failovers)},
			{"retries denied by budget", n(st.RetriesDenied)},
			{"retry budget tokens", fmt.Sprintf("%.1f / %d", st.RetryTokens, st.RetryBurst)},
			{"degraded reads served", n(st.DegradedServes)},
			{"sessions demoted", n(st.SessionDemotions)},
			{"writes failed fast", n(st.WritesFailedFast)},
			{"write epoch", strconv.FormatUint(st.WriteEpoch, 10)},
			occupancyRow("stale cache", st.Stale),
		}
		for _, m := range st.Members {
			health := "unhealthy"
			if m.Healthy {
				health = "healthy"
			}
			rows = append(rows, statRow{
				"replica " + m.Name,
				fmt.Sprintf("%s, circuit %s (%d consecutive fails, %d opens), %d served / %d failed",
					health, m.Circuit, m.CircuitFails, m.CircuitOpens, m.Served, m.Failed),
			})
		}
		data.Sections = append(data.Sections, statSection{Title: "Cluster gateway", Rows: rows})

		// Overload control: the admission limiter's live posture (limit,
		// inflight, queue), the pressure signal the degrade switch
		// observes, the switch itself, and the shed/backpressure record.
		ov := st.Overload
		mode, limit := "off", "none"
		switch {
		case ov.Max == 0: // admission control off
		case ov.Min == ov.Max:
			mode, limit = "fixed (limiter pinned at Min = Max)", strconv.Itoa(ov.Limit)
		default:
			mode, limit = "adaptive (latency-gradient AIMD)", strconv.Itoa(ov.Limit)
		}
		degrade := "off"
		if ov.Degrading {
			degrade = "on"
		}
		ovRows := []statRow{
			{"admission control", mode},
			{"concurrency limit", limit},
			{"inflight / queued", fmt.Sprintf("%d / %d", ov.Inflight, ov.Queued)},
			{"queue delay (recent avg)", ov.QueueDelay.String()},
			{"baseline p50", ov.Baseline.String()},
			{"pressure", fmt.Sprintf("%.2f", ov.Pressure)},
			{"degrade switch", degrade},
			{"degrade switch flips", n(ov.Flips)},
			{"requests shed (limiter)", n(ov.Sheds)},
			{"sheds by class (int/browse/bulk)", fmt.Sprintf("%d / %d / %d",
				ov.ShedByPri[0], ov.ShedByPri[1], ov.ShedByPri[2])},
			{"limit backoffs", n(ov.Backoffs)},
			{"downstream overload refusals", n(ov.DBOverloads)},
		}
		data.Sections = append(data.Sections, statSection{Title: "Overload", Rows: ovRows})
	}

	if d := s.cfg.LocalDM; d != nil {
		ds := d.Stats()
		hits, misses := ds.QueryCacheHits.Load(), ds.QueryCacheMisses.Load()
		pct := func(hits, misses int64) string {
			if hits+misses == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
		uhits, umisses := ds.UnitCacheHits.Load(), ds.UnitCacheMisses.Load()
		data.Sections = append(data.Sections, statSection{Title: "Data management", Rows: []statRow{
			{"requests", n(ds.Requests.Load())},
			{"engine queries", n(ds.Queries.Load())},
			{"edits", n(ds.Edits.Load())},
			{"query cache hits", n(hits)},
			{"query cache misses", n(misses)},
			{"query cache hit rate", pct(hits, misses)},
			occupancyRow("query cache", d.QueryCacheStats()),
			{"decoded-unit cache hits", n(uhits)},
			{"decoded-unit cache misses (decodes)", n(umisses)},
			{"decoded-unit cache hit rate", pct(uhits, umisses)},
			{"decoded-unit cache evictions", n(ds.UnitCacheEvictions.Load())},
			{"decoded-unit cache resident bytes", n(ds.UnitCacheBytes.Load())},
			{"session cache hits", n(ds.CacheHits.Load())},
			{"access denied", n(ds.AccessDenied.Load())},
		}})

		// The default archive's journal: head/horizon, footprint, the
		// compaction and GC record, and the time-travel counters.
		if a := d.DefaultArchive(); a != nil {
			st := a.Lake().Status()
			u := func(v uint64) string { return strconv.FormatUint(v, 10) }
			data.Sections = append(data.Sections, statSection{Title: "Lake archive", Rows: []statRow{
				{"journal head commit", u(st.Head)},
				{"gc horizon", u(st.Horizon)},
				{"live files", strconv.Itoa(st.LiveFiles)},
				{"live bytes", n(st.LiveBytes)},
				{"physical bytes (incl. history)", n(st.PhysBytes)},
				{"containers live / total", fmt.Sprintf("%d / %d", st.ContainersLive, st.ContainersTotal)},
				{"journal bytes", n(st.JournalBytes)},
				{"durable pins", strconv.Itoa(st.Pins)},
				{"commits", n(st.Commits)},
				{"compactions", n(st.Compactions)},
				{"gc runs", n(st.GCRuns)},
				{"bytes reclaimed", n(st.BytesReclaimed)},
				{"as-of views opened", n(ds.AsOfOpens.Load())},
				{"as-of reads served", n(ds.AsOfReads.Load())},
			}})
		}

		// Read-optimized analytics path: DM-level routing counters plus,
		// when the runner is a local segment store, its residency and
		// zone-map pruning effectiveness.
		anaRows := []statRow{
			{"analytics queries", n(ds.AnalyticsQueries.Load())},
			{"served vectorized", n(ds.AnalyticsVector.Load())},
			{"served row-at-a-time", n(ds.AnalyticsRowFall.Load())},
			{"analytics cache hits", n(ds.AnalyticsCacheHits.Load())},
		}
		if store, ok := d.AnalyticsRunner().(*colseg.Store); ok {
			ss := store.Stats()
			pruneRate := "n/a"
			if seen := ss.SegsScanned + ss.SegsPruned; seen > 0 {
				pruneRate = fmt.Sprintf("%.1f%%", 100*float64(ss.SegsPruned)/float64(seen))
			}
			anaRows = append(anaRows,
				statRow{"segments resident", n(ss.SegsResident)},
				statRow{"rows covered", n(ss.RowsCovered)},
				statRow{"segment builds", n(ss.Builds)},
				statRow{"segment rebuilds (rewrites)", n(ss.Rebuilds)},
				statRow{"segments pruned by zone maps", n(ss.SegsPruned)},
				statRow{"zone-map prune rate", pruneRate},
				statRow{"rows scanned vectorized", n(ss.RowsVec)},
				statRow{"rows scanned in tails", n(ss.RowsTail)},
			)
		}
		data.Sections = append(data.Sections, statSection{Title: "Analytics (columnar)", Rows: anaRows})

		// When the metadata engine is a shard router, show the routing
		// split (single-shard vs scatter) and per-shard circuit state.
		if router, ok := d.MetaDB().(*shard.Router); ok {
			st := router.Status()
			u := func(v uint64) string { return strconv.FormatUint(v, 10) }
			rows := []statRow{
				{"single-shard ops", u(st.SingleShard)},
				{"scatter-gather ops", u(st.Scatter)},
				{"fanout shard calls", u(st.FanoutCalls)},
				{"shard failures", u(st.ShardFailures)},
				{"analytics fanouts", u(st.AnaFanout)},
			}
			for _, sh := range st.Shards {
				rows = append(rows, statRow{
					fmt.Sprintf("shard %d", sh.ID),
					fmt.Sprintf("%d slots, circuit %s (%d consecutive fails, %d opens)",
						sh.Slots, sh.Circuit, sh.Fails, sh.Opens),
				})
			}
			data.Sections = append(data.Sections, statSection{Title: "Shard router", Rows: rows})
		}

		dbs := []struct {
			name string
			db   interface{ Stats() minidb.StatsSnapshot }
		}{{"meta engine", d.MetaDB()}}
		if d.DomainDB() != d.MetaDB() {
			dbs = append(dbs, struct {
				name string
				db   interface{ Stats() minidb.StatsSnapshot }
			}{"domain engine", d.DomainDB()})
		}
		for _, e := range dbs {
			es := e.db.Stats()
			data.Sections = append(data.Sections, statSection{Title: e.name, Rows: []statRow{
				{"queries", n(es.Queries)},
				{"count queries", n(es.CountQueries)},
				{"commits", n(es.Commits)},
				{"snapshots published", n(es.SnapshotPublishes)},
				{"view refreshes", n(es.ViewRefreshes)},
			}})
		}
	}
	s.render(w, "stats", data)
}

// occupancyRow renders the occupancy half of the one Stats shape every
// epochcache user reports (hit counters keep their per-cache rows).
func occupancyRow(name string, st epochcache.Stats) statRow {
	return statRow{name + " entries / evictions", fmt.Sprintf("%d / %d", st.Entries, st.Evictions)}
}

// base carries the fields every template needs.
type base struct {
	Title     string
	User      string
	Node      string
	Generated string
	Error     string
	Degraded  string // non-empty: page data came from the gateway's stale cache
}

// degraded converts a gateway stale-cache tag into a page banner. The
// value accompanying a DegradedError is real data from an earlier epoch
// (see cluster.serveRead); browse pages show it flagged instead of
// rendering an error page. Any other error is left for the caller.
func degraded(err *error) string {
	var de *cluster.DegradedError
	if errors.As(*err, &de) {
		*err = nil
		return fmt.Sprintf("backend unreachable — showing results cached %v ago (at most %d writes behind)",
			de.Age.Round(time.Second), de.StaleWrites)
	}
	return ""
}

func (s *Server) baseData(r *http.Request, title string) base {
	user := ""
	if c, err := r.Cookie(sessionCookie); err == nil && s.cfg.LocalDM != nil {
		if sess := s.cfg.LocalDM.SessionFor(c.Value, clientIP(r)); sess != nil {
			user = sess.User
		}
	}
	return base{
		Title: title, User: user, Node: s.cfg.Node,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
}

// token extracts the session cookie value ("" when anonymous).
func token(r *http.Request) string {
	if c, err := r.Cookie(sessionCookie); err == nil {
		return c.Value
	}
	return ""
}

func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// render executes a page template, counting output bytes.
func (s *Server) render(w http.ResponseWriter, name string, data interface{}) {
	var buf bytes.Buffer
	if err := pageTemplates.ExecuteTemplate(&buf, name, data); err != nil {
		s.stats.Errors.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
	s.stats.Pages.Add(1)
	s.stats.HTMLBytes.Add(int64(buf.Len()))
}

func (s *Server) renderError(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.stats.Errors.Add(1)
	data := struct {
		base
	}{s.baseData(r, "Error")}
	data.Error = err.Error()
	w.WriteHeader(status)
	var buf bytes.Buffer
	if terr := pageTemplates.ExecuteTemplate(&buf, "error", data); terr == nil {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	cats, err := s.cfg.API.ListCatalogs(token(r), clientIP(r))
	note := degraded(&err)
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	data := struct {
		base
		Catalogs []*dm.Catalog
	}{s.baseData(r, "Catalogs"), cats}
	data.Degraded = note
	s.render(w, "index", data)
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	limit := intParam(r, "limit", 50)
	offset := intParam(r, "offset", 0)
	f := dm.HLEFilter{Catalog: id, Limit: limit, Offset: offset}
	hles, err := s.cfg.API.QueryHLEs(token(r), clientIP(r), f)
	note := degraded(&err)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	count := len(hles)
	if s.cfg.LocalDM != nil {
		if n, err := s.cfg.LocalDM.CatalogMemberCount(id); err == nil {
			count = n
		}
	}
	data := struct {
		base
		HLEs  []*schema.HLE
		Count int
		Limit int
	}{s.baseData(r, "Catalog "+id), hles, count, limit}
	data.Degraded = note
	s.render(w, "catalog", data)
}

// handleHLE is the central browse page: the HLE header/footer templates plus
// one analysis fragment per ANA tuple. It issues the request anatomy the
// paper measures in §7.2 — on the order of seven database queries,
// including count queries.
func (s *Server) handleHLE(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	tok, ip := token(r), clientIP(r)
	h, err := s.cfg.API.GetHLE(tok, ip, id)
	note := degraded(&err)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	anas, err := s.cfg.API.AnalysesForHLE(tok, ip, id)
	if n := degraded(&err); note == "" {
		note = n
	}
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	// Two count queries: how many visible events share this event's mission
	// day, and how many share its kind hint (every visible event when it has
	// none).
	siblings, err := s.cfg.API.CountHLEs(tok, ip, dm.HLEFilter{HasDay: true, Day: h.Day})
	if n := degraded(&err); note == "" {
		note = n
	}
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	kindCount, err := s.cfg.API.CountHLEs(tok, ip, dm.HLEFilter{Kind: h.KindHint})
	if n := degraded(&err); note == "" {
		note = n
	}
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	data := struct {
		base
		HLE          *schema.HLE
		Analyses     []*schema.ANA
		AnaCount     int
		SiblingCount int
		KindCount    int
		CanAnalyze   bool
	}{
		s.baseData(r, "Event "+id), h, anas, len(anas), siblings, kindCount,
		s.cfg.Frontend != nil && s.cfg.LocalDM != nil && tok != "",
	}
	data.Degraded = note
	s.render(w, "hle", data)
}

func (s *Server) handleANA(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	tok, ip := token(r), clientIP(r)
	a, err := s.cfg.API.GetANA(tok, ip, id)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	// "then query for similar analyses" (§6.1).
	similar, err := s.cfg.API.FindExistingAnalysis(tok, ip, a)
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	similarCount := 0
	if similar != nil && similar.ID != a.ID {
		similarCount = 1
	}
	data := struct {
		base
		ANA          *schema.ANA
		FracPct      float64
		SimilarCount int
	}{s.baseData(r, "Analysis "+id), a, a.ApproxFrac * 100, similarCount}
	s.render(w, "ana", data)
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := dm.HLEFilter{Kind: q.Get("kind"), Limit: 100}
	if d := q.Get("day"); d != "" {
		if day, err := strconv.ParseInt(d, 10, 64); err == nil {
			f.Day, f.HasDay = day, true
		}
	}
	if from, to := q.Get("from"), q.Get("to"); from != "" && to != "" {
		ffrom, err1 := strconv.ParseFloat(from, 64)
		fto, err2 := strconv.ParseFloat(to, 64)
		if err1 == nil && err2 == nil {
			f.TimeFrom, f.TimeTo, f.HasTime = ffrom, fto, true
		}
	}
	tok, ip := token(r), clientIP(r)
	hles, err := s.cfg.API.QueryHLEs(tok, ip, f)
	note := degraded(&err)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	count, err := s.cfg.API.CountHLEs(tok, ip, f)
	if n := degraded(&err); note == "" {
		note = n
	}
	if err != nil {
		s.renderError(w, r, http.StatusInternalServerError, err)
		return
	}
	data := struct {
		base
		HLEs  []*schema.HLE
		Count int
		Kind  string
		Day   string
		From  string
		To    string
	}{s.baseData(r, "Browse"), hles, count, q.Get("kind"), q.Get("day"), q.Get("from"), q.Get("to")}
	data.Degraded = note
	s.render(w, "browse", data)
}

func (s *Server) handleImage(w http.ResponseWriter, r *http.Request) {
	itemID := r.URL.Path[len("/img/"):]
	item, err := s.cfg.API.ReadItem(token(r), clientIP(r), itemID)
	if err != nil {
		s.stats.Errors.Add(1)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "image/gif")
	w.Header().Set("Cache-Control", "max-age=3600") // client-side caching (§6.2)
	_, _ = w.Write(item.Bytes)
	s.stats.Images.Add(1)
	s.stats.ImageBytes.Add(int64(len(item.Bytes)))
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	itemID := r.URL.Path[len("/dl/"):]
	item, err := s.cfg.API.ReadItem(token(r), clientIP(r), itemID)
	if err != nil {
		s.stats.Errors.Add(1)
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", itemID+"."+item.Format))
	_, _ = w.Write(item.Bytes)
}

func (s *Server) handleLogo(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "image/gif")
	w.Header().Set("Cache-Control", "max-age=86400") // static: downloaded once
	_, _ = w.Write(s.logoGIF)
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		data := struct{ base }{s.baseData(r, "Login")}
		s.render(w, "login", data)
		return
	}
	user := r.FormValue("user")
	info, err := s.cfg.API.Authenticate(user, r.FormValue("password"), clientIP(r), dm.SessionHLE)
	if err != nil {
		data := struct{ base }{s.baseData(r, "Login")}
		data.Error = "authentication failed"
		w.WriteHeader(http.StatusUnauthorized)
		var buf bytes.Buffer
		if terr := pageTemplates.ExecuteTemplate(&buf, "login", data); terr == nil {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write(buf.Bytes())
		}
		return
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: info.Token, Path: "/"})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	if tok := token(r); tok != "" {
		_ = s.cfg.API.Logout(tok)
	}
	http.SetCookie(w, &http.Cookie{Name: sessionCookie, Value: "", Path: "/", MaxAge: -1})
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// handleAnalyze submits a processing request through the PL frontend.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.Frontend == nil || s.cfg.LocalDM == nil {
		s.renderError(w, r, http.StatusNotImplemented,
			fmt.Errorf("web: this node has no processing capacity"))
		return
	}
	sess := s.cfg.LocalDM.SessionFor(token(r), clientIP(r))
	if sess == nil {
		s.renderError(w, r, http.StatusUnauthorized,
			fmt.Errorf("web: log in to run analyses"))
		return
	}
	hleID := r.FormValue("hle_id")
	h, err := s.cfg.LocalDM.GetHLE(sess, hleID)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	anaType := r.FormValue("type")
	params := map[string]interface{}{
		"tstart": h.TStart, "tstop": h.TStop, "hle_id": hleID,
	}
	if r.FormValue("use_view") == "1" {
		params["use_view"] = true
		params["approx_frac"] = 0.5
	}
	ticket, err := s.cfg.Frontend.Submit(&pl.Request{
		Type: anaType, Session: sess, Params: params,
	})
	if err != nil {
		s.renderError(w, r, http.StatusBadRequest, err)
		return
	}
	s.jobsMu.Lock()
	s.jobSeq++
	jobID := fmt.Sprintf("job-%06d", s.jobSeq)
	s.jobs[jobID] = ticket
	s.jobsMu.Unlock()
	http.Redirect(w, r, "/job?id="+jobID, http.StatusSeeOther)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.jobsMu.Lock()
	ticket := s.jobs[id]
	s.jobsMu.Unlock()
	if ticket == nil {
		s.renderError(w, r, http.StatusNotFound, fmt.Errorf("web: unknown job %s", id))
		return
	}
	status, phase := ticket.Status()
	data := struct {
		base
		JobID     string
		JobStatus string
		JobPhase  string
		EntityID  string
		JobError  string
	}{s.baseData(r, "Processing request"), id, status, phase, "", ""}
	if status == pl.StatusCommitted || status == pl.StatusFailed || status == pl.StatusCanceled {
		entityID, err := ticket.Wait(r.Context())
		data.EntityID = entityID
		if err != nil {
			data.JobError = err.Error()
		}
	}
	s.render(w, "job", data)
}

// handleSynoptic runs the §6.4 context-dependent search: parallel queries
// to the configured remote archives for observations correlated with the
// requested time window, best effort.
func (s *Server) handleSynoptic(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Synoptic == nil {
		s.renderError(w, r, http.StatusNotImplemented,
			fmt.Errorf("web: no remote archives configured"))
		return
	}
	q := r.URL.Query()
	t0, _ := strconv.ParseFloat(q.Get("t0"), 64)
	t1, err := strconv.ParseFloat(q.Get("t1"), 64)
	if err != nil || t1 <= t0 {
		t1 = t0 + 3600 // default window
	}
	rep := s.cfg.Synoptic.Search(r.Context(), t0, t1)
	type archiveStatus struct {
		Name  string
		Hits  int
		Error string
	}
	var statuses []archiveStatus
	for _, ep := range s.cfg.Synoptic.Endpoints() {
		st := archiveStatus{Name: ep.Name, Hits: len(rep.Grouped[ep.Name])}
		if err := rep.Errors[ep.Name]; err != nil {
			st.Error = err.Error()
		}
		statuses = append(statuses, st)
	}
	data := struct {
		base
		T0, T1   float64
		Entries  []synoptic.Entry
		Archives []archiveStatus
	}{s.baseData(r, "Synoptic search"), t0, t1, rep.Entries, statuses}
	s.render(w, "synoptic", data)
}

// vizArray builds the catalog array for the request's parameters.
func (s *Server) vizArray(r *http.Request) (*dataviz.Array, string, error) {
	q := r.URL.Query()
	catalog := q.Get("catalog")
	if catalog == "" {
		catalog = dm.ExtendedCat
	}
	x := dataviz.Dimension(q.Get("x"))
	if x == "" {
		x = dataviz.DimTStart
	}
	y := dataviz.Dimension(q.Get("y"))
	if y == "" {
		y = dataviz.DimPeakRate
	}
	events, err := s.cfg.API.QueryHLEs(token(r), clientIP(r), dm.HLEFilter{Catalog: catalog})
	if err != nil {
		return nil, catalog, err
	}
	a, err := dataviz.BuildArray(events, x, y, 48, 24)
	return a, catalog, err
}

// handleViz renders the interactive exploration page (§6.3): a density
// plot and an extent plot over two selectable catalog dimensions.
func (s *Server) handleViz(w http.ResponseWriter, r *http.Request) {
	a, catalog, err := s.vizArray(r)
	if err != nil {
		s.renderError(w, r, statusFor(err), err)
		return
	}
	data := struct {
		base
		Catalog string
		X, Y    string
		Dims    []string
		Tuples  int
		Query   string
	}{
		s.baseData(r, "Catalog visualization"),
		catalog, string(a.X), string(a.Y),
		[]string{"tstart", "duration", "peak_rate", "significance", "emax", "total_counts"},
		len(a.Tuples),
		r.URL.RawQuery,
	}
	s.render(w, "viz", data)
}

// handleVizImage serves the density or extent plot as a GIF.
func (s *Server) handleVizImage(density bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a, _, err := s.vizArray(r)
		if err != nil {
			s.stats.Errors.Add(1)
			http.Error(w, err.Error(), statusFor(err))
			return
		}
		var img []byte
		if density {
			grid := a.Density(dataviz.Range{})
			// ?frac=0.2 serves the approximated view: the density is
			// wavelet-encoded and reconstructed from a coefficient prefix,
			// as the StreamCorder does client-side (§6.3).
			if fs := r.URL.Query().Get("frac"); fs != "" {
				if frac, perr := strconv.ParseFloat(fs, 64); perr == nil && frac > 0 && frac < 1 {
					parts := a.Partitions(1, 1)
					grid = parts[0].DecodeDensity(frac)
				}
			}
			img, err = dataviz.RenderDensity(grid)
		} else {
			img, err = dataviz.RenderExtent(a.Extent(dataviz.Range{}), a.XMin, a.XMax, a.YMin, a.YMax)
		}
		if err != nil {
			s.stats.Errors.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "image/gif")
		_, _ = w.Write(img)
		s.stats.Images.Add(1)
		s.stats.ImageBytes.Add(int64(len(img)))
	}
}

func intParam(r *http.Request, name string, def int) int {
	if v := r.URL.Query().Get(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			return n
		}
	}
	return def
}

func statusFor(err error) int {
	if dm.IsDenied(err) {
		return http.StatusForbidden
	}
	return http.StatusNotFound
}

// makeLogo renders the little static navigation icon served once and cached
// by the browser.
func makeLogo() []byte {
	img := image.NewPaletted(image.Rect(0, 0, 16, 16), color.Palette{
		color.RGBA{240, 240, 250, 255},
		color.RGBA{200, 80, 20, 255},
	})
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			dx, dy := float64(x-8), float64(y-8)
			if dx*dx+dy*dy < 36 {
				img.SetColorIndex(x, y, 1)
			}
		}
	}
	var buf bytes.Buffer
	_ = gif.Encode(&buf, img, nil)
	return buf.Bytes()
}
