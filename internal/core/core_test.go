package core

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

func smallTelemetry() telemetry.Config {
	return telemetry.Config{Seed: 31, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0}
}

func startNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestNodeFullPipeline(t *testing.T) {
	n := startNode(t, Config{})
	reports, err := n.LoadDay(1, smallTelemetry(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Events == 0 {
		t.Fatalf("reports = %+v", reports)
	}
	sess, err := n.ImportSession()
	if err != nil {
		t.Fatal(err)
	}
	anaID, err := n.Analyze(sess, schema.AnaLightcurve, reports[0].HLEs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := n.DM.GetANA(sess, anaID)
	if err != nil || ana.NPhotons == 0 {
		t.Fatalf("ana = %+v %v", ana, err)
	}
}

func TestNodeHTTPServesWebAndRPC(t *testing.T) {
	n := startNode(t, Config{})
	if _, err := n.LoadDay(1, smallTelemetry(), 1200); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	// Web tier answers.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "Extended catalog") {
		t.Fatalf("web: %d", resp.StatusCode)
	}
	// DM RPC answers on the same listener.
	remote := dm.NewRemote(ts.URL+"/dm/", nil)
	cats, err := remote.ListCatalogs("", "")
	if err != nil || len(cats) != 2 {
		t.Fatalf("rpc: %v %v", cats, err)
	}
}

func TestNodePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	n, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := n.LoadDay(1, smallTelemetry(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	events := reports[0].Events
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n2, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	hles, err := n2.DM.QueryHLEs(nil, dm.HLEFilter{Catalog: dm.ExtendedCat})
	if err != nil {
		t.Fatal(err)
	}
	if len(hles) != events {
		t.Fatalf("after restart: %d events, want %d", len(hles), events)
	}
	// Files still resolve and read after restart.
	sess, err := n2.ImportSession()
	if err != nil {
		t.Fatal(err)
	}
	photons, _, err := n2.DM.RawPhotons(sess, 0, 1200)
	if err != nil || len(photons) == 0 {
		t.Fatalf("raw photons after restart: %d %v", len(photons), err)
	}
}

func TestNodePartitionedDomain(t *testing.T) {
	n := startNode(t, Config{PartitionDomain: true})
	if n.MetaDB == n.DomainDB {
		t.Fatal("domain not partitioned")
	}
	if _, err := n.LoadDay(1, smallTelemetry(), 1200); err != nil {
		t.Fatal(err)
	}
	if n.DomainDB.TableLen(schema.TableHLE) == 0 {
		t.Fatal("no HLEs in the domain partition")
	}
	if n.MetaDB.TableLen(schema.TableHLE) != -1 {
		t.Fatal("HLE table leaked into the meta partition")
	}
}

func TestNodeRequiresDataDir(t *testing.T) {
	if _, err := Start(Config{DataDir: ""}); err == nil {
		t.Fatal("node started without a data directory")
	}
}

// TestNodeSoak exercises the whole node concurrently: browsers hammer the
// web tier while analyses run through the PL and a second day loads
// through the DM — the closest in-process analogue of the paper's mixed
// production workload.
func TestNodeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	n := startNode(t, Config{workers: 4, idlServers: 2})
	reports, err := n.LoadDay(1, smallTelemetry(), 1200)
	if err != nil || reports[0].Events == 0 {
		t.Fatalf("load: %v", err)
	}
	hleID := reports[0].HLEs[0]
	sess, err := n.ImportSession()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(n.Handler())
	defer ts.Close()

	errs := make(chan error, 32)
	var wg sync.WaitGroup

	// Browsers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				for _, path := range []string{"/", "/catalog?id=" + dm.ExtendedCat, "/hle?id=" + hleID, "/viz"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- fmt.Errorf("%s -> %d", path, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	// Analysts.
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				anaType := schema.AnaHistogram
				if (i+j)%2 == 1 {
					anaType = schema.AnaLightcurve
				}
				if _, err := n.Analyze(sess, anaType, hleID, map[string]interface{}{
					// Distinct across both analysts: an identical request in
					// flight would be joined, not run and committed twice.
					"energy_bins": 8 + 5*i + j,
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// A second day loads mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := n.LoadDay(2, smallTelemetry(), 1200); err != nil {
			errs <- err
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything committed: 10 analyses on the event.
	anas, err := n.DM.AnalysesForHLE(sess, hleID)
	if err != nil || len(anas) != 10 {
		t.Fatalf("analyses = %d %v", len(anas), err)
	}
}

func TestMaintenanceLoop(t *testing.T) {
	n := startNode(t, Config{Node: "mx"})
	if got := n.MetaDB.Stats().Checkpoints; got != 0 {
		t.Fatalf("checkpoints before maintenance = %d", got)
	}
	stop := n.StartMaintenance(10 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for n.MetaDB.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("maintenance never checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// A user's identical submission while the first is still running joins it
// (same id, one committed analysis); another user's does not.
func TestAnalyzeJoinsIdenticalSubmissionInFlight(t *testing.T) {
	n := startNode(t, Config{})
	reports, err := n.LoadDay(1, smallTelemetry(), 1200)
	if err != nil {
		t.Fatal(err)
	}
	hle := reports[0].HLEs[0]
	sessions := make([]*dm.Session, 2)
	for i, name := range []string{"alice", "bob"} {
		if err := n.DM.CreateUser(name, "pw", dm.GroupScientist,
			dm.RightBrowse, dm.RightAnalyze, dm.RightUpload); err != nil {
			t.Fatal(err)
		}
		if sessions[i], err = n.DM.Authenticate(name, "pw", "10.0.0.1", dm.SessionHLE); err != nil {
			t.Fatal(err)
		}
	}
	params := func() map[string]interface{} {
		return map[string]interface{}{"tstart": 0.0, "tstop": 600.0, "image_size": 32}
	}
	type answer struct {
		id  string
		err error
	}
	submit := func(s *dm.Session, out chan<- answer) {
		id, err := n.Analyze(s, schema.AnaImaging, hle, params())
		out <- answer{id, err}
	}
	first := make(chan answer, 1)
	go submit(sessions[0], first)
	for registered := false; !registered; time.Sleep(50 * time.Microsecond) {
		n.anaMu.Lock()
		registered = len(n.analyzing) == 1
		n.anaMu.Unlock()
	}
	const joiners = 4
	same, other := make(chan answer, joiners), make(chan answer, 1)
	for i := 0; i < joiners; i++ {
		go submit(sessions[0], same)
	}
	go submit(sessions[1], other)

	want := <-first
	if want.err != nil {
		t.Fatal(want.err)
	}
	for i := 0; i < joiners; i++ {
		if got := <-same; got.err != nil || got.id != want.id {
			t.Fatalf("joiner %d: %q %v, want %q", i, got.id, got.err, want.id)
		}
	}
	if got := <-other; got.err != nil || got.id == want.id {
		t.Fatalf("another user's submission: %q %v (first was %q)", got.id, got.err, want.id)
	}
	n.anaMu.Lock()
	left := len(n.analyzing)
	n.anaMu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls still registered", left)
	}
}
