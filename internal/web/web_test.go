package web

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/overload"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/synoptic"
	"repro/internal/telemetry"
)

type rig struct {
	dm     *dm.DM
	server *Server
	ts     *httptest.Server
	client *http.Client
	hleID  string
	anaID  string
	itemID string
}

func newWebRig(t *testing.T) *rig {
	t.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	d, err := dm.Open(dm.Options{
		MetaDB: db, DefaultArchive: "disk-0",
		URLRoot: "http://hedc.test", Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	// Load one unit so catalogs have events.
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 88, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0,
	})
	rep, err := d.LoadUnit(telemetry.SegmentDay(day, 1200)[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 {
		t.Fatal("no events")
	}
	// One committed analysis through the PL so pages have images.
	dir := pl.NewDirectory()
	mgr, err := pl.NewManager("mgr", 1, pl.Routines(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	dir.RegisterManager(mgr, "server")
	fe := pl.NewFrontend(dir, 2, 20)
	for _, s := range pl.NewAnalysisStrategies(d) {
		fe.RegisterStrategy(s)
	}
	sess, err := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := fe.Submit(&pl.Request{
		Type: schema.AnaLightcurve, Session: sess,
		Params: map[string]interface{}{"tstart": 0.0, "tstop": 1200.0, "hle_id": rep.HLEs[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(sess, "ana", anaID); err != nil {
		t.Fatal(err)
	}
	ana, err := d.GetANA(sess, anaID)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{API: dm.Local{DM: d}, Frontend: fe, LocalDM: d, Node: "web-test"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	jar, _ := cookiejar.New(nil)
	return &rig{
		dm: d, server: srv, ts: ts,
		client: &http.Client{Jar: jar},
		hleID:  rep.HLEs[0], anaID: anaID, itemID: ana.ItemID,
	}
}

func (r *rig) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := r.client.Get(r.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func (r *rig) login(t *testing.T, user, pass string) {
	t.Helper()
	resp, err := r.client.PostForm(r.ts.URL+"/login", url.Values{
		"user": {user}, "password": {pass},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login status = %d", resp.StatusCode)
	}
}

func TestIndexListsCatalogs(t *testing.T) {
	r := newWebRig(t)
	code, body := r.get(t, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"Standard catalog", "Extended catalog", "/catalog?id="} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q", want)
		}
	}
}

func TestCatalogPageListsEvents(t *testing.T) {
	r := newWebRig(t)
	code, body := r.get(t, "/catalog?id="+dm.ExtendedCat)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "/hle?id="+r.hleID) {
		t.Fatalf("catalog page missing event link; body:\n%s", body[:min(len(body), 2000)])
	}
}

func TestHLEPageAnatomy(t *testing.T) {
	r := newWebRig(t)
	before := r.dm.MetaDB().Stats()
	code, body := r.get(t, "/hle?id="+r.hleID)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	after := r.dm.MetaDB().Stats()

	// §7.2: "the DM issues on average seven database queries" per browse
	// request, two of them count queries.
	queries := after.Queries - before.Queries
	counts := after.CountQueries - before.CountQueries
	if queries < 4 || queries > 10 {
		t.Fatalf("HLE page issued %d queries, want ~7", queries)
	}
	if counts < 2 {
		t.Fatalf("HLE page issued %d count queries, want >= 2", counts)
	}
	// The page embeds the analysis fragment with its dynamic image.
	if !strings.Contains(body, "/img/") || !strings.Contains(body, r.anaID) {
		t.Fatal("HLE page missing analysis fragment")
	}
	// Composite templates: header nav + footer meta both present.
	if !strings.Contains(body, `class="nav"`) || !strings.Contains(body, "node web-test") {
		t.Fatal("template composition broken")
	}
}

func TestDynamicImageServed(t *testing.T) {
	r := newWebRig(t)
	resp, err := r.client.Get(r.ts.URL + "/img/" + r.itemID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/gif" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) < 10 || string(body[:3]) != "GIF" {
		t.Fatalf("not a GIF (%d bytes)", len(body))
	}
}

func TestStaticImageCached(t *testing.T) {
	r := newWebRig(t)
	resp, err := r.client.Get(r.ts.URL + "/static/logo.gif")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age") {
		t.Fatalf("static image not cacheable: %q", cc)
	}
}

func TestANAPage(t *testing.T) {
	r := newWebRig(t)
	code, body := r.get(t, "/ana?id="+r.anaID)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"lightcurve", "/img/" + r.itemID, "download image"} {
		if !strings.Contains(body, want) {
			t.Fatalf("ana page missing %q", want)
		}
	}
}

func TestBrowseQueryForm(t *testing.T) {
	r := newWebRig(t)
	code, body := r.get(t, "/browse?kind=flare")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "matching events") {
		t.Fatal("browse page malformed")
	}
	// Time-range browse.
	code, _ = r.get(t, "/browse?from=0&to=1200")
	if code != 200 {
		t.Fatalf("time browse status = %d", code)
	}
}

func TestLoginLogoutFlow(t *testing.T) {
	r := newWebRig(t)
	// Bad credentials.
	resp, err := r.client.PostForm(r.ts.URL+"/login", url.Values{
		"user": {"import"}, "password": {"wrong"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad login status = %d", resp.StatusCode)
	}
	// Good credentials; the page then shows the user.
	r.login(t, "import", "secret")
	_, body := r.get(t, "/")
	if !strings.Contains(body, "logged in as <b>import</b>") {
		t.Fatal("login not reflected")
	}
	// Logout clears it.
	code, body := r.get(t, "/logout")
	if code != 200 || strings.Contains(body, "logged in as") {
		t.Fatalf("logout failed (%d)", code)
	}
}

func TestPrivateDataHiddenFromAnonymous(t *testing.T) {
	r := newWebRig(t)
	// A private analysis created by a scientist.
	if err := r.dm.CreateUser("alice", "pw", dm.GroupScientist,
		dm.RightBrowse, dm.RightAnalyze, dm.RightUpload); err != nil {
		t.Fatal(err)
	}
	sess, _ := r.dm.Authenticate("alice", "pw", "127.0.0.1", dm.SessionHLE)
	privID, err := r.dm.CreateHLE(sess, &schema.HLE{
		KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, _ := r.get(t, "/hle?id="+privID)
	if code != http.StatusForbidden {
		t.Fatalf("anonymous read of private HLE: status %d", code)
	}
}

func TestAnalyzeThroughWebUI(t *testing.T) {
	r := newWebRig(t)
	r.login(t, "import", "secret")
	resp, err := r.client.PostForm(r.ts.URL+"/analyze", url.Values{
		"hle_id": {r.hleID}, "type": {"histogram"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	// We were redirected to the job page; poll it until committed.
	m := regexp.MustCompile(`job-\d+`).FindString(resp.Request.URL.String())
	if m == "" {
		t.Fatalf("no job id in %s", resp.Request.URL)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, jb := r.get(t, "/job?id="+m)
		if strings.Contains(jb, "committed") {
			if !strings.Contains(jb, "/ana?id=") {
				t.Fatal("committed job page lacks entity link")
			}
			break
		}
		if strings.Contains(jb, "failed") {
			t.Fatalf("job failed: %s", jb)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not commit in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAnalyzeRequiresLogin(t *testing.T) {
	r := newWebRig(t)
	resp, err := r.client.PostForm(r.ts.URL+"/analyze", url.Values{
		"hle_id": {r.hleID}, "type": {"histogram"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous analyze status = %d", resp.StatusCode)
	}
}

func TestUnknownPagesAndJobs(t *testing.T) {
	r := newWebRig(t)
	code, _ := r.get(t, "/hle?id=hle-none")
	if code != http.StatusNotFound {
		t.Fatalf("missing hle status = %d", code)
	}
	code, _ = r.get(t, "/job?id=job-999999")
	if code != http.StatusNotFound {
		t.Fatalf("missing job status = %d", code)
	}
	code, _ = r.get(t, "/nosuchpage")
	if code != http.StatusNotFound {
		t.Fatalf("missing page status = %d", code)
	}
}

func TestWebOverRemoteDM(t *testing.T) {
	// The presentation tier works identically against a remote DM (§5.4).
	r := newWebRig(t)
	dmSrv := httptest.NewServer(dm.NewServer(dm.Local{DM: r.dm}, "/dm/").Mux())
	defer dmSrv.Close()
	remote := dm.NewRemote(dmSrv.URL+"/dm/", nil)
	web2 := New(Config{API: remote, Node: "web-remote"})
	ts2 := httptest.NewServer(web2.Handler())
	defer ts2.Close()

	resp, err := http.Get(ts2.URL + "/catalog?id=" + dm.ExtendedCat)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), r.hleID) {
		t.Fatalf("remote-DM browse failed: %d", resp.StatusCode)
	}
	if r.dm.Stats().RedirectsIn.Load() == 0 {
		t.Fatal("no redirected calls recorded")
	}
}

func TestStatsCounting(t *testing.T) {
	r := newWebRig(t)
	r.get(t, "/")
	r.client.Get(r.ts.URL + "/img/" + r.itemID)
	st := r.server.Stats()
	if st.Pages.Load() == 0 || st.HTMLBytes.Load() == 0 {
		t.Fatal("page stats missing")
	}
	if st.Images.Load() == 0 || st.ImageBytes.Load() == 0 {
		t.Fatal("image stats missing")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestVizPageAndPlots(t *testing.T) {
	r := newWebRig(t)
	code, body := r.get(t, "/viz?x=tstart&y=peak_rate")
	if code != 200 {
		t.Fatalf("viz status = %d", code)
	}
	for _, want := range []string{"/viz/density.gif", "/viz/extent.gif", "tuples"} {
		if !strings.Contains(body, want) {
			t.Fatalf("viz page missing %q", want)
		}
	}
	for _, path := range []string{"/viz/density.gif?x=tstart&y=peak_rate", "/viz/extent.gif"} {
		resp, err := r.client.Get(r.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(body) < 10 || string(body[:3]) != "GIF" {
			t.Fatalf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}
	// Unknown dimension is rejected cleanly.
	code, _ = r.get(t, "/viz?x=bogus")
	if code == 200 {
		t.Fatal("bogus dimension accepted")
	}
}

func TestSynopticPage(t *testing.T) {
	r := newWebRig(t)
	// Without archives the page degrades cleanly.
	code, _ := r.get(t, "/synoptic")
	if code != http.StatusNotImplemented {
		t.Fatalf("no-archive synoptic status = %d", code)
	}
	// With a (fake) remote archive, hits render in the table.
	remote := httptest.NewServer(&synoptic.ArchiveServer{Name: "soho", Entries: []synoptic.Entry{
		{Title: "EIT 195", Instrument: "EIT", Time: 500, URL: "http://soho/1"},
	}})
	defer remote.Close()
	r.server.cfg.Synoptic = synoptic.NewSearcher([]synoptic.Endpoint{
		{Name: "soho", URL: remote.URL},
	}, time.Second)
	code, body := r.get(t, "/synoptic?t0=0&t1=1000")
	if code != 200 {
		t.Fatalf("synoptic status = %d", code)
	}
	for _, want := range []string{"soho", "EIT 195", "Correlated observations"} {
		if !strings.Contains(body, want) {
			t.Fatalf("synoptic page missing %q", want)
		}
	}
}

func TestDownloadEndpoint(t *testing.T) {
	r := newWebRig(t)
	resp, err := r.client.Get(r.ts.URL + "/dl/" + r.itemID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, "attachment") {
		t.Fatalf("disposition = %q", cd)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) == 0 {
		t.Fatal("empty download")
	}
	// Missing items 404.
	resp2, _ := r.client.Get(r.ts.URL + "/dl/item-none")
	resp2.Body.Close()
	if resp2.StatusCode == 200 {
		t.Fatal("missing item downloaded")
	}
}

func TestVizApproximatedDensity(t *testing.T) {
	r := newWebRig(t)
	for _, path := range []string{"/viz/density.gif?frac=0.2", "/viz/density.gif?frac=bogus"} {
		resp, err := r.client.Get(r.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body[:3]) != "GIF" {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
}

func TestAnalyzeWithoutProcessingCapacity(t *testing.T) {
	r := newWebRig(t)
	// A pure browse node (remote DM, no PL) refuses analysis submission.
	browseOnly := New(Config{API: dm.Local{DM: r.dm}, Node: "browse-only"})
	ts := httptest.NewServer(browseOnly.Handler())
	defer ts.Close()
	resp, err := http.PostForm(ts.URL+"/analyze", url.Values{
		"hle_id": {r.hleID}, "type": {"histogram"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// GET on /analyze is rejected.
	resp2, _ := http.Get(ts.URL + "/analyze")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp2.StatusCode)
	}
}

func TestCatalogPageCountIsMembership(t *testing.T) {
	r := newWebRig(t)
	// The standard catalog holds a subset of events; its page must show
	// the membership count, not the repository-wide total.
	n, err := r.dm.CatalogMemberCount(dm.StandardCat)
	if err != nil {
		t.Fatal(err)
	}
	_, body := r.get(t, "/catalog?id="+dm.StandardCat)
	want := fmt.Sprintf("%d events in this catalog", n)
	if !strings.Contains(body, want) {
		t.Fatalf("catalog page missing %q", want)
	}
}

func TestStatsPage(t *testing.T) {
	r := newWebRig(t)
	r.get(t, "/") // generate some traffic first
	code, body := r.get(t, "/stats")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"Web tier", "Data management", "meta engine",
		"snapshots published", "query cache hit rate",
		"Analytics (columnar)", "served vectorized",
		"Processing farm", "local runs / steals", "preemptions",
		"hedges won / lost", "result cache hits / misses", "manager mgr",
		"query cache entries / evictions", "result cache entries / evictions",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("stats page missing %q", want)
		}
	}
}

// TestStatsClusterSection: a node fronting a replica cluster surfaces the
// gateway's resilience state — per-replica health, circuit state, retry
// budget, degraded-mode counters — on the same /stats page.
func TestStatsClusterSection(t *testing.T) {
	r := newWebRig(t)
	gw := cluster.NewGateway(cluster.GatewayOptions{HealthInterval: time.Minute})
	defer gw.Close()
	gw.AddReplica("replica-0", dm.Local{DM: r.dm})
	s := New(Config{API: dm.Local{DM: r.dm}, LocalDM: r.dm, Cluster: gw, Node: "gw-test"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"Cluster gateway", "replica replica-0", "circuit closed",
		"retry budget tokens", "degraded reads served", "writes failed fast",
		"stale cache entries / evictions",
		// No Admission: admission control is off.
		`admission control</td><td style="text-align:right">off<`,
		`concurrency limit</td><td style="text-align:right">none<`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("stats page missing %q", want)
		}
	}
}

// TestStatsOverloadSection: the same page surfaces the admission
// limiter's posture — mode, limit, pressure, brownout rung, shed
// accounting — when the gateway runs the adaptive stack, and names a
// limiter pinned at Min = Max a fixed cap.
func TestStatsOverloadSection(t *testing.T) {
	r := newWebRig(t)
	for _, tt := range []struct {
		admission *overload.Config
		mode      string
	}{
		{&overload.Config{Initial: 8, Min: 2, Max: 16}, "adaptive (latency-gradient AIMD)"},
		{&overload.Config{Initial: 8, Min: 8, Max: 8}, "fixed (limiter pinned at Min = Max)"},
	} {
		gw := cluster.NewGateway(cluster.GatewayOptions{
			HealthInterval: time.Minute,
			Admission:      tt.admission,
		})
		gw.AddReplica("replica-0", dm.Local{DM: r.dm})
		s := New(Config{API: dm.Local{DM: r.dm}, LocalDM: r.dm, Cluster: gw, Node: "gw-test"})
		ts := httptest.NewServer(s.Handler())
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		gw.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		for _, want := range []string{
			"Overload", tt.mode, "concurrency limit",
			"pressure", "brownout stage", "normal", "downstream overload refusals",
		} {
			if !strings.Contains(string(body), want) {
				t.Fatalf("stats page missing %q", want)
			}
		}
	}
}

// degradedStubAPI answers ListCatalogs from "cache" with the gateway's
// degraded tag, the shape cluster.serveRead produces when the live path is
// down. Everything else panics (embedded nil interface) — the test only
// browses the index.
type degradedStubAPI struct{ dm.API }

func (degradedStubAPI) ListCatalogs(token, ip string) ([]*dm.Catalog, error) {
	return []*dm.Catalog{{ID: "cat-standard", Name: "Standard", Kind: "standard", Members: 7}},
		&cluster.DegradedError{Age: 90 * time.Second, StaleWrites: 2,
			Cause: fmt.Errorf("no replica can reach the database")}
}

// TestBrowseDegradedBanner: a degraded gateway answer renders as a normal
// page with a staleness banner, not as an error page.
func TestBrowseDegradedBanner(t *testing.T) {
	s := New(Config{API: degradedStubAPI{}, Node: "gw-test"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (degraded data must render, not error)", resp.StatusCode)
	}
	for _, want := range []string{
		"degraded", "cached 1m30s ago", "2 writes behind", "cat-standard", "Standard",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("degraded index page missing %q", want)
		}
	}
	if s.Stats().Errors.Load() != 0 {
		t.Fatalf("degraded serve counted as error")
	}
}

// TestStatsShardSection: when the DM's metadata engine is a shard
// router, /stats surfaces the routing split, the map version and
// per-shard circuit state alongside the usual sections.
func TestStatsShardSection(t *testing.T) {
	engines := make(map[int]minidb.Engine, 2)
	for i := 0; i < 2; i++ {
		db, err := minidb.Open("", schema.AllSchemas()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		engines[i] = db
	}
	router, err := shard.NewRouter(shard.Options{Shards: engines})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dm.Open(dm.Options{Node: "shard-web", MetaDB: router,
		Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	api := dm.Local{DM: d}
	s := New(Config{API: api, LocalDM: d, Node: "shard-web"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive one scatter query through the stack so the counters are
	// non-zero when the page renders.
	if _, err := api.QueryHLEs("", "10.9.0.1", dm.HLEFilter{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"Shard router", "shard map version", "single-shard ops",
		"scatter-gather ops", "shard 0", "shard 1", "circuit closed",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("stats page missing %q", want)
		}
	}
}

// TestHLEPageShowsKindCount: the event page renders the kind count it
// issues, and that count is the visitor's visible events of the event's
// kind: a private event of the same kind stays out of an anonymous count.
func TestHLEPageShowsKindCount(t *testing.T) {
	r := newWebRig(t)
	h, err := r.dm.GetHLE(nil, r.hleID)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dm.CreateUser("alice", "pw", dm.GroupScientist, dm.RightBrowse, dm.RightAnalyze); err != nil {
		t.Fatal(err)
	}
	alice, err := r.dm.Authenticate("alice", "pw", "127.0.0.1", dm.SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.dm.CreateHLE(alice, &schema.HLE{
		KindHint: h.KindHint, TStop: 1, Version: 1, CalibVersion: 1,
	}); err != nil {
		t.Fatal(err)
	}
	want, err := r.dm.CountHLEs(nil, dm.HLEFilter{Kind: h.KindHint})
	if err != nil || want == 0 {
		t.Fatalf("anonymous count of kind %q = %d (%v), want > 0", h.KindHint, want, err)
	}
	if mine, err := r.dm.CountHLEs(alice, dm.HLEFilter{Kind: h.KindHint}); err != nil || mine != want+1 {
		t.Fatalf("alice counts %d (%v) events of kind %q, want %d", mine, err, h.KindHint, want+1)
	}
	code, body := r.get(t, "/hle?id="+r.hleID)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if line := fmt.Sprintf(">%d events of this kind.<", want); !strings.Contains(body, line) {
		t.Fatalf("event page lacks %q", line)
	}
}
