package streamcorder

import (
	"context"
	"io"
	"log"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// serverRig stands up a loaded HEDC server reachable over HTTP.
type serverRig struct {
	dm     *dm.DM
	remote *dm.Remote
	hleID  string
	anaID  string
	imgID  string
	viewID string // wavelet view item
}

func newServerRig(t *testing.T) *serverRig {
	t.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	arch, _ := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	d, err := dm.Open(dm.Options{
		MetaDB: db, DefaultArchive: "disk-0", Logger: log.New(io.Discard, "", 0),
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
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 99, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0,
	})
	rep, err := d.LoadUnit(telemetry.SegmentDay(day, 1200)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Run and publish one analysis for image fetching.
	dir := pl.NewDirectory()
	mgr, _ := pl.NewManager("mgr", 1, pl.Routines(), time.Minute)
	dir.RegisterManager(mgr, "server")
	fe := pl.NewFrontend(dir, 1, 20)
	for _, s := range pl.NewAnalysisStrategies(d) {
		fe.RegisterStrategy(s)
	}
	sess, _ := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
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
	ana, _ := d.GetANA(sess, anaID)

	// Find a stored view item for progressive work.
	views, err := d.MetaDB().Query(minidb.Query{Table: schema.TableViews, Limit: 1})
	if err != nil || len(views.Rows) == 0 {
		t.Fatal("no views stored")
	}
	viewItem := views.Rows[0][9].Str()

	srv := httptest.NewServer(dm.NewServer(dm.Local{DM: d}, "/dm/").Mux())
	t.Cleanup(srv.Close)
	return &serverRig{
		dm:     d,
		remote: dm.NewRemote(srv.URL+"/dm/", nil),
		hleID:  rep.HLEs[0], anaID: anaID, imgID: ana.ItemID, viewID: viewItem,
	}
}

func newV1(t *testing.T, rig *serverRig) *Client {
	t.Helper()
	c, err := New(Options{API: rig.remote, Strategy: CacheV1, Dir: t.TempDir(), ip: "10.2.2.2"})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newV2(t *testing.T, rig *serverRig) *Client {
	t.Helper()
	c, err := New(Options{API: rig.remote, Strategy: CacheV2, Dir: t.TempDir(), ip: "10.2.2.3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InitClone("clonepw"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBrowseThroughClient(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	cats, err := c.ListCatalogs()
	if err != nil || len(cats) != 2 {
		t.Fatalf("catalogs = %v %v", cats, err)
	}
	hles, err := c.QueryHLEs(dm.HLEFilter{Catalog: dm.ExtendedCat})
	if err != nil || len(hles) == 0 {
		t.Fatalf("hles = %v %v", hles, err)
	}
	anas, err := c.AnalysesForHLE(rig.hleID)
	if err != nil || len(anas) != 1 {
		t.Fatalf("anas = %v %v", anas, err)
	}
}

func TestV1CacheHitsAndMisses(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	a, err := c.FetchItem(rig.imgID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().CacheMisses.Load() != 1 || c.Stats().CacheHits.Load() != 0 {
		t.Fatalf("stats = misses %d hits %d", c.Stats().CacheMisses.Load(), c.Stats().CacheHits.Load())
	}
	b, err := c.FetchItem(rig.imgID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().CacheHits.Load() != 1 {
		t.Fatal("second fetch not served from cache")
	}
	if string(a.Bytes) != string(b.Bytes) || b.Format != "gif" {
		t.Fatal("cache corrupted the object")
	}
	// Bytes only fetched once.
	if c.Stats().BytesFetched.Load() != int64(len(a.Bytes)) {
		t.Fatalf("bytes fetched = %d", c.Stats().BytesFetched.Load())
	}
}

func TestV2CacheIsALocalDM(t *testing.T) {
	rig := newServerRig(t)
	c := newV2(t, rig)
	if _, err := c.FetchItem(rig.imgID); err != nil {
		t.Fatal(err)
	}
	item, err := c.FetchItem(rig.imgID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().CacheHits.Load() != 1 {
		t.Fatal("v2 cache did not hit")
	}
	if item.Format != "gif" {
		t.Fatalf("format = %q", item.Format)
	}
	// The object is retrievable directly from the local DM, like on the
	// server.
	data, _, err := c.localDM.ReadItem(c.localSession(), rig.imgID)
	if err != nil || len(data) == 0 {
		t.Fatalf("local DM read: %v", err)
	}
}

func TestCloneCatalogOfflineQueries(t *testing.T) {
	rig := newServerRig(t)
	c := newV2(t, rig)
	hles, anas, err := c.CloneCatalog(dm.ExtendedCat)
	if err != nil {
		t.Fatal(err)
	}
	if hles == 0 {
		t.Fatal("nothing cloned")
	}
	_ = anas
	// Offline (local) query over the cloned metadata.
	res, err := c.LocalHLEs(minidb.Query{
		Where: []minidb.Pred{{Col: "kind_hint", Op: minidb.OpEq, Val: minidb.S("flare")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("clone has no flares")
	}
	// Cloning again is idempotent.
	again, _, err := c.CloneCatalog(dm.ExtendedCat)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second clone duplicated %d HLEs", again)
	}
}

func TestPeerToPeerServing(t *testing.T) {
	rig := newServerRig(t)
	c := newV2(t, rig)
	if _, _, err := c.CloneCatalog(dm.ExtendedCat); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchItem(rig.imgID); err != nil {
		t.Fatal(err)
	}
	handler, err := c.PeerHandler()
	if err != nil {
		t.Fatal(err)
	}
	peerSrv := httptest.NewServer(handler)
	defer peerSrv.Close()

	// A second client pulls the item from the first client, not the server.
	peerAPI := dm.NewRemote(peerSrv.URL+"/dm/", nil)
	c2, err := New(Options{API: peerAPI, Strategy: CacheV1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	item, err := c2.FetchItem(rig.imgID)
	if err != nil {
		t.Fatal(err)
	}
	if len(item.Bytes) == 0 {
		t.Fatal("peer served empty item")
	}
}

func TestPeerServingRequiresV2(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	if _, err := c.PeerHandler(); err == nil {
		t.Fatal("v1 client served peers")
	}
	if _, _, err := c.CloneCatalog(dm.ExtendedCat); err == nil {
		t.Fatal("v1 client cloned")
	}
	if _, err := c.LocalHLEs(minidb.Query{}); err == nil {
		t.Fatal("v1 client has a local database")
	}
}

func TestProgressiveLightcurveRefines(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	curves, err := c.ProgressiveLightcurve(rig.viewID, 64, []float64{0.1, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	// The item was fetched exactly once; refinements are local.
	if c.Stats().CacheMisses.Load() != 1 {
		t.Fatalf("misses = %d", c.Stats().CacheMisses.Load())
	}
	// Successive fractions must not lose total signal (progressively
	// better approximations of the same curve).
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	full := sum(curves[2])
	if full <= 0 {
		t.Fatal("empty lightcurve")
	}
	if diff := sum(curves[0]) - full; diff > full*0.5 {
		t.Fatalf("coarse curve wildly off: %v vs %v", sum(curves[0]), full)
	}
}

func TestModulesDataTypeSensitive(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	// The GIF item triggers the gif-viewer cordlet.
	out, err := c.RunModules(rig.imgID)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	// Context was kept across modules.
	if c.Context("last_image") != rig.imgID {
		t.Fatalf("context = %q", c.Context("last_image"))
	}
	// The wavelet view triggers the progressive module.
	out, err = c.RunModules(rig.viewID)
	if err != nil {
		t.Fatal(err)
	}
	if c.Context("last_view") != rig.viewID {
		t.Fatal("wavelet module did not run")
	}
	_ = out
	// Unknown formats are rejected.
	if mods := c.ModulesFor("exotic"); len(mods) != 0 {
		t.Fatalf("modules for exotic = %v", mods)
	}
}

func TestCustomModuleRegistration(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	c.RegisterModule(countModule{})
	mods := c.ModulesFor("gif")
	if len(mods) != 2 {
		t.Fatalf("gif modules = %d", len(mods))
	}
	out, err := c.RunModules(rig.imgID)
	if err != nil || len(out) != 2 {
		t.Fatalf("out = %v %v", out, err)
	}
}

type countModule struct{}

func (countModule) Formats() []string { return []string{"gif", "log"} }
func (countModule) Handle(ctx map[string]string, item *dm.ItemData) (string, error) {
	return "bytes", nil
}

func TestLoginPropagatesRights(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	if err := c.Login("import", "wrong"); err == nil {
		t.Fatal("bad login accepted")
	}
	if err := c.Login("import", "secret"); err != nil {
		t.Fatal(err)
	}
	if c.token == "" {
		t.Fatal("no token after login")
	}
}

func TestAnalyzeLocalMatchesServerSide(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	params := analysis.Params{
		Type: schema.AnaLightcurve, TStart: 0, TStop: 1200, TimeBins: 64,
	}
	local, err := c.AnalyzeLocal(params)
	if err != nil {
		t.Fatal(err)
	}
	if local.NPhotons == 0 || local.Total == 0 {
		t.Fatalf("local result = %+v", local)
	}
	// The server committed the same analysis earlier (rig setup); the
	// client-side run over the same window sees the same photons.
	sess, _ := rig.dm.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	serverAna, err := rig.dm.GetANA(sess, rig.anaID)
	if err != nil {
		t.Fatal(err)
	}
	if local.NPhotons != serverAna.NPhotons {
		t.Fatalf("local %d photons vs server %d", local.NPhotons, serverAna.NPhotons)
	}

	// Second run: the raw unit comes from the cache — no new transfer,
	// Table 1's client/cached scenario.
	fetchedBefore := c.Stats().BytesFetched.Load()
	if _, err := c.AnalyzeLocal(params); err != nil {
		t.Fatal(err)
	}
	if c.Stats().BytesFetched.Load() != fetchedBefore {
		t.Fatal("second local analysis re-transferred the raw data")
	}
}

func TestAnalyzeLocalNoData(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	if _, err := c.AnalyzeLocal(analysis.Params{
		Type: schema.AnaHistogram, TStart: 1e6, TStop: 1e6 + 10,
	}); err == nil {
		t.Fatal("analysis without data succeeded")
	}
}

func TestUploadLocalAnalysisRoundTrip(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	params := analysis.Params{
		Type: schema.AnaSpectrogram, TStart: 0, TStop: 1200, TimeBins: 32, EnergyBins: 8,
	}
	local, err := c.AnalyzeLocal(params)
	if err != nil {
		t.Fatal(err)
	}
	// Anonymous upload rejected.
	if _, err := c.UploadLocalAnalysis(rig.hleID, params, local); err == nil {
		t.Fatal("anonymous upload accepted")
	}
	if err := c.Login("import", "secret"); err != nil {
		t.Fatal(err)
	}
	anaID, err := c.UploadLocalAnalysis(rig.hleID, params, local)
	if err != nil {
		t.Fatal(err)
	}
	// The server now serves the uploaded analysis like any other.
	sess, _ := rig.dm.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	ana, err := rig.dm.GetANA(sess, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if ana.Algorithm != "streamcorder-local" || ana.NPhotons != local.NPhotons {
		t.Fatalf("uploaded ana = %+v", ana)
	}
	img, _, err := rig.dm.ReadItem(sess, ana.ItemID)
	if err != nil || len(img) == 0 {
		t.Fatalf("uploaded image: %v", err)
	}
}

func TestModuleNamesAndLogViewer(t *testing.T) {
	rig := newServerRig(t)
	c := newV1(t, rig)
	if c.strategy != CacheV1 {
		t.Fatalf("strategy = %v", c.strategy)
	}
	have := map[Module]bool{}
	for _, format := range []string{"gif", "wavelet", "log", "params", "phx2"} {
		for _, m := range c.ModulesFor(format) {
			have[m] = true
		}
	}
	for _, want := range []Module{gifModule{}, waveletModule{}, logModule{}, phoenixModule{}} {
		if !have[want] {
			t.Fatalf("module %T not registered (have %v)", want, have)
		}
	}
	// The log viewer renders the analysis log verbatim.
	sess, _ := rig.dm.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	ana, _ := rig.dm.GetANA(sess, rig.anaID)
	// The log item shares the ANA's item id prefix; fetch via the item's
	// sibling (the log file was stored with suffix .log under same item).
	// ReadItem returns the first (gif) entry, so drive the log module
	// directly instead.
	out, err := logModule{}.Handle(map[string]string{}, &dm.ItemData{
		ItemID: ana.ItemID, Format: "log", Bytes: []byte("line1\n"),
	})
	if err != nil || out != "line1\n" {
		t.Fatalf("log module = %q %v", out, err)
	}
	// The gif module rejects non-GIF payloads.
	if _, err := (gifModule{}).Handle(map[string]string{}, &dm.ItemData{
		ItemID: "x", Format: "gif", Bytes: []byte("notagif"),
	}); err == nil {
		t.Fatal("gif module accepted garbage")
	}
	// The phoenix module round-trips a real spectrogram.
	p := telemetry.GeneratePhoenix(1, 0, telemetry.PhoenixConfig{Seed: 3, Bursts: 1, TimeBins: 32, FreqBins: 8})
	ctx := map[string]string{}
	desc, err := (phoenixModule{}).Handle(ctx, &dm.ItemData{ItemID: "itm", Format: "phx2", Bytes: p.Encode()})
	if err != nil || ctx["last_spectrogram"] != "itm" {
		t.Fatalf("phoenix module = %q %v", desc, err)
	}
	if _, err := (phoenixModule{}).Handle(ctx, &dm.ItemData{Bytes: []byte("junk")}); err == nil {
		t.Fatal("phoenix module accepted junk")
	}
	// The wavelet module rejects junk too.
	if _, err := (waveletModule{}).Handle(ctx, &dm.ItemData{Bytes: []byte("junk")}); err == nil {
		t.Fatal("wavelet module accepted junk")
	}
}

func TestNewClientValidation(t *testing.T) {
	rig := newServerRig(t)
	if _, err := New(Options{Strategy: CacheV1, Dir: "x"}); err == nil {
		t.Fatal("client without API accepted")
	}
	if _, err := New(Options{API: rig.remote, Strategy: CacheV1}); err == nil {
		t.Fatal("client without dir accepted")
	}
	// Default strategy is V1.
	c, err := New(Options{API: rig.remote, Dir: t.TempDir()})
	if err != nil || c.strategy != CacheV1 {
		t.Fatalf("default strategy = %v %v", c.strategy, err)
	}
	// V2 reopen over an existing clone directory works (archive already
	// registered in the local database).
	dir := t.TempDir()
	c2, err := New(Options{API: rig.remote, Strategy: CacheV2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.InitClone("pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.FetchItem(rig.imgID); err != nil {
		t.Fatal(err)
	}
	c2.localDM.MetaDB().Close()
	c3, err := New(Options{API: rig.remote, Strategy: CacheV2, Dir: dir})
	if err != nil {
		t.Fatalf("reopen clone: %v", err)
	}
	if err := c3.InitClone("pw"); err != nil {
		t.Fatal(err)
	}
	// The previously cached object survives the restart.
	if _, err := c3.FetchItem(rig.imgID); err != nil {
		t.Fatal(err)
	}
	if c3.Stats().CacheHits.Load() != 1 {
		t.Fatal("clone cache did not survive reopen")
	}
}
