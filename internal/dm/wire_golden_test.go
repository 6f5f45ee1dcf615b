package dm

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current encoder")

const remoteRequestsGolden = "testdata/remote_requests.golden"

// TestRemoteRequestBytes pins the bytes every Remote call puts on the
// wire: the URL path and the JSON body of each of the 15 calls (the 14
// API methods and ping). Any change to the method names, the envelope or
// an argument's encoding shows up as a diff against
// testdata/remote_requests.golden; rerun with -update only when the
// change is meant to break the /dm/ protocol.
func TestRemoteRequestBytes(t *testing.T) {
	var (
		mu  sync.Mutex
		got bytes.Buffer
		cur string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		mu.Lock()
		if err != nil {
			t.Errorf("%s: read body: %v", cur, err)
		}
		got.WriteString(cur + " " + r.Method + " " + r.URL.Path + " " + r.Header.Get("Content-Type") + "\n")
		got.Write(body)
		got.WriteString("\n\n")
		mu.Unlock()
		w.Write([]byte("{}\n")) // no result, no error: every call returns its zero value
	}))
	defer srv.Close()
	r := NewRemote(srv.URL+"/dm/", nil)

	odd := "a<b>&c \"q\" \\ — Ünïcödé ☀\n\t"
	full := HLEFilter{
		Kind: "flare", Owner: odd, Day: 17, HasDay: true,
		TimeFrom: 1.5, TimeTo: 2e21, HasTime: true,
		Catalog: "cat-standard", OrderDesc: true, Offset: 40, Limit: 20,
	}
	hle := &schema.HLE{
		ID: "hle-1", Version: 2, Owner: odd, Public: true, KindHint: "flare",
		TStart: 1.5, TStop: 2.25, PeakRate: 1e-7, TotalCounts: 12345, Day: 17,
		Quality: 3, Origin: "user", CalibVersion: 1,
	}
	ana := &schema.ANA{
		ID: "ana-1", HLEID: "hle-1", Type: schema.AnaLightcurve, Algorithm: odd,
		Version: 1, TStart: 1.5, TStop: 2.25, TimeBins: 64, CalibVersion: 1,
	}
	files := []StoredFile{{Suffix: ".gif", Format: "gif", Data: []byte{0, 1, 2, '<', 0xff}}}

	calls := []struct {
		name string
		do   func()
	}{
		{"ping", func() { r.Ping() }},
		{"authenticate", func() { r.Authenticate(odd, "pw\"&<>", "10.0.0.1", SessionHLE) }},
		{"logout", func() { r.Logout("tok-1") }},
		{"query-hles/full-filter", func() { r.QueryHLEs("tok-1", "10.0.0.1", full) }},
		{"query-hles/zero-filter", func() { r.QueryHLEs("", "", HLEFilter{}) }},
		{"count-hles/full-filter", func() { r.CountHLEs("tok-1", "10.0.0.1", full) }},
		{"get-hle", func() { r.GetHLE("tok-1", "10.0.0.1", odd) }},
		{"analyses-for-hle", func() { r.AnalysesForHLE("tok-1", "10.0.0.1", "hle-1") }},
		{"get-ana", func() { r.GetANA("tok-1", "10.0.0.1", "ana-1") }},
		{"list-catalogs", func() { r.ListCatalogs("", "10.0.0.1") }},
		{"create-hle", func() { r.CreateHLE("tok-1", "10.0.0.1", hle) }},
		{"create-hle/nil", func() { r.CreateHLE("tok-1", "10.0.0.1", nil) }},
		{"import-analysis", func() { r.ImportAnalysis("tok-1", "10.0.0.1", ana, files) }},
		{"find-existing-analysis", func() { r.FindExistingAnalysis("tok-1", "10.0.0.1", ana) }},
		{"publish", func() { r.Publish("tok-1", "10.0.0.1", "ana", "ana-1") }},
		{"read-item", func() { r.ReadItem("", "10.0.0.1", "item-"+odd) }},
		{"units-in-range", func() { r.UnitsInRange("", "10.0.0.1", 0.1, 1.5e9) }},
	}
	methods := map[string]bool{}
	for _, c := range calls {
		mu.Lock()
		cur = c.name
		mu.Unlock()
		c.do()
		methods[strings.SplitN(c.name, "/", 2)[0]] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if want := reflect.TypeOf((*API)(nil)).Elem().NumMethod() + 1; len(methods) != want {
		t.Fatalf("%d wire methods exercised, want %d (every API method and ping)", len(methods), want)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(remoteRequestsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(remoteRequestsGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(remoteRequestsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("request bytes differ from %s:\n--- got\n%s--- want\n%s", remoteRequestsGolden, got.Bytes(), want)
	}
}
