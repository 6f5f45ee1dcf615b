package dm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/overload"
	"repro/internal/schema"
)

// newRemotePair starts a DM node behind an HTTP server and returns a Remote
// endpoint talking to it, plus the underlying DM.
func newRemotePair(t *testing.T) (*Remote, *DM) {
	t.Helper()
	d := newTestDM(t)
	srv := httptest.NewServer(NewServer(Local{DM: d}, "/dm/").Mux())
	t.Cleanup(srv.Close)
	return NewRemote(srv.URL+"/dm/", nil), d
}

func TestRemoteRoundTrip(t *testing.T) {
	remote, d := newRemotePair(t)
	if err := d.CreateUser("carol", "pw", GroupScientist,
		RightBrowse, RightDownload, RightAnalyze, RightUpload); err != nil {
		t.Fatal(err)
	}

	// Authenticate remotely.
	info, err := remote.Authenticate("carol", "pw", "10.1.1.1", SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	if info.User != "carol" || info.Token == "" {
		t.Fatalf("info = %+v", info)
	}
	tok, ip := info.Token, "10.1.1.1"

	// Create an HLE through the wire.
	id, err := remote.CreateHLE(tok, ip, &schema.HLE{
		KindHint: "flare", TStart: 1, TStop: 2, Version: 1, CalibVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.GetHLE(tok, ip, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != id || got.Owner != "carol" {
		t.Fatalf("got = %+v", got)
	}

	// Query and count.
	hles, err := remote.QueryHLEs(tok, ip, HLEFilter{Kind: "flare"})
	if err != nil || len(hles) != 1 {
		t.Fatalf("query = %v %v", hles, err)
	}
	n, err := remote.CountHLEs(tok, ip, HLEFilter{})
	if err != nil || n != 1 {
		t.Fatalf("count = %d %v", n, err)
	}

	// Import an analysis with a file payload (base64 over the wire).
	anaID, err := remote.ImportAnalysis(tok, ip, &schema.ANA{
		HLEID: id, Type: schema.AnaLightcurve, TStop: 2, Version: 1, CalibVersion: 1,
	}, []StoredFile{{Suffix: ".gif", Format: "gif", Data: []byte{0x47, 0x49, 0x46, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := remote.GetANA(tok, ip, anaID)
	if err != nil {
		t.Fatal(err)
	}
	item, err := remote.ReadItem(tok, ip, ana.ItemID)
	if err != nil {
		t.Fatal(err)
	}
	if len(item.Bytes) != 4 || item.Format != "gif" {
		t.Fatalf("item = %+v", item)
	}

	// Analyses listing, publish, catalogs.
	anas, err := remote.AnalysesForHLE(tok, ip, id)
	if err != nil || len(anas) != 1 {
		t.Fatalf("analyses = %v %v", anas, err)
	}
	if err := remote.Publish(tok, ip, "ana", anaID); err != nil {
		t.Fatal(err)
	}
	cats, err := remote.ListCatalogs(tok, ip)
	if err != nil || len(cats) != 2 {
		t.Fatalf("catalogs = %v %v", cats, err)
	}

	// FindExistingAnalysis round-trips nil and non-nil.
	spec := *ana
	found, err := remote.FindExistingAnalysis(tok, ip, &spec)
	if err != nil || found == nil {
		t.Fatalf("existing = %v %v", found, err)
	}
	spec.TimeBins = 999
	found, err = remote.FindExistingAnalysis(tok, ip, &spec)
	if err != nil || found != nil {
		t.Fatalf("phantom analysis = %v %v", found, err)
	}

	// Logout invalidates the token.
	if err := remote.Logout(tok); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.CreateHLE(tok, ip, &schema.HLE{KindHint: "x", TStop: 1, Version: 1, CalibVersion: 1}); err == nil {
		t.Fatal("create after logout accepted")
	}
}

func TestRemoteDeniedErrorsSurviveTheWire(t *testing.T) {
	remote, d := newRemotePair(t)
	alice := newScientist(t, d, "alice")
	id, _ := d.CreateHLE(alice, &schema.HLE{KindHint: "flare", TStop: 1, Version: 1, CalibVersion: 1})

	// Anonymous remote reader is denied — and the error is still
	// recognizable as a denial after JSON serialization.
	_, err := remote.GetHLE("", "", id)
	if err == nil || !IsDenied(err) {
		t.Fatalf("err = %v, want denied", err)
	}
	// Bad credentials over the wire.
	if _, err := remote.Authenticate("alice", "wrong", "", SessionHLE); !IsDenied(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoteUnknownMethod(t *testing.T) {
	remote, _ := newRemotePair(t)
	err := remote.call("no-such-method", "", "", struct{}{}, nil)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestRemoteFullSurface drives every API method through a Remote against
// a Server, so each one crosses the wire exactly once.
func TestRemoteFullSurface(t *testing.T) {
	remote, d := newRemotePair(t)
	var disp API = remote
	if err := d.CreateUser("dave", "pw", GroupScientist,
		RightBrowse, RightDownload, RightAnalyze, RightUpload); err != nil {
		t.Fatal(err)
	}
	info, err := disp.Authenticate("dave", "pw", "10.3.3.3", SessionHLE)
	if err != nil {
		t.Fatal(err)
	}
	tok, ip := info.Token, "10.3.3.3"

	hleID, err := disp.CreateHLE(tok, ip, &schema.HLE{
		KindHint: "flare", TStart: 1, TStop: 2, Version: 1, CalibVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disp.GetHLE(tok, ip, hleID); err != nil {
		t.Fatal(err)
	}
	if hles, err := disp.QueryHLEs(tok, ip, HLEFilter{Kind: "flare"}); err != nil || len(hles) != 1 {
		t.Fatalf("query = %v %v", hles, err)
	}
	if n, err := disp.CountHLEs(tok, ip, HLEFilter{Kind: "flare"}); err != nil || n != 1 {
		t.Fatalf("count = %d %v", n, err)
	}
	anaID, err := disp.ImportAnalysis(tok, ip, &schema.ANA{
		HLEID: hleID, Type: schema.AnaHistogram, TStop: 2, Version: 1, CalibVersion: 1,
	}, []StoredFile{{Suffix: ".gif", Format: "gif", Data: []byte("GIFx")}})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := disp.GetANA(tok, ip, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disp.AnalysesForHLE(tok, ip, hleID); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.FindExistingAnalysis(tok, ip, ana); err != nil {
		t.Fatal(err)
	}
	if err := disp.Publish(tok, ip, "ana", anaID); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.ReadItem(tok, ip, ana.ItemID); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.ListCatalogs(tok, ip); err != nil {
		t.Fatal(err)
	}
	if _, err := disp.UnitsInRange(tok, ip, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := disp.Logout(tok); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().RedirectsIn.Load(); got != 14 {
		t.Fatalf("%d calls went remote, want one per API method (14)", got)
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	remote, d := newRemotePair(t)
	alice := newScientist(t, d, "alice")

	// An application error (not a denial) crosses the wire with its
	// message intact — and must not look like a transport failure, or the
	// gateway would fail the replica over for a bad request.
	_, err := remote.GetHLE(alice.Token, alice.IP, "hle-does-not-exist")
	if err == nil || !strings.Contains(err.Error(), "no such HLE") {
		t.Fatalf("err = %v, want remote not-found message", err)
	}
	if IsDenied(err) || IsUnreachable(err) {
		t.Fatalf("app error misclassified: denied=%v unreachable=%v", IsDenied(err), IsUnreachable(err))
	}
	// Ping works without a session or a database touch.
	if err := remote.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
}

func TestServerMalformedEnvelopes(t *testing.T) {
	remote, _ := newRemotePair(t)

	// Body that is not JSON at all: HTTP 400 from the server, which the
	// client reports as a transport error (no well-formed reply arrived).
	resp, err := http.Post(remote.BaseURL+"query-hles", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}

	// Valid envelope, args of the wrong shape: a clean application error.
	resp, err = http.Post(remote.BaseURL+"get-hle", "application/json",
		strings.NewReader(`{"args":["not","an","object"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Error  string `json:"error"`
		Denied bool   `json:"denied"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if derr != nil || reply.Error == "" || reply.Denied {
		t.Fatalf("reply = %+v (decode %v), want non-denied error", reply, derr)
	}

	// Missing args where the method needs them.
	resp, err = http.Post(remote.BaseURL+"count-hles", "application/json",
		strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	derr = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if derr != nil || !strings.Contains(reply.Error, "missing args") {
		t.Fatalf("reply = %+v (decode %v)", reply, derr)
	}

	// GET is rejected: the protocol is POST-only.
	resp, err = http.Get(remote.BaseURL + "list-catalogs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestRemoteTransportErrors(t *testing.T) {
	// A server that answers garbage: the reply never decodes, so the
	// client must classify the call as a transport failure.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>not the rpc protocol</html>")
	}))
	defer garbage.Close()
	r := NewRemote(garbage.URL+"/dm/", nil)
	if _, err := r.ListCatalogs("", ""); !IsUnreachable(err) {
		t.Fatalf("garbage reply: err = %v, want transport error", err)
	}

	// A server that 500s before the protocol layer.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "proxy exploded", http.StatusBadGateway)
	}))
	defer broken.Close()
	r = NewRemote(broken.URL+"/dm/", nil)
	err := r.Publish("tok", "ip", "ana", "x")
	if !IsUnreachable(err) || !strings.Contains(err.Error(), "http 502") {
		t.Fatalf("http 502: err = %v", err)
	}
	// An HTTP-level failure is not a dial failure: the request may have
	// been delivered, so mutations must not be blindly retried.
	if IsDialError(err) {
		t.Fatal("http 502 classified as dial error")
	}

	// Nothing listening at all: dial failure, the one transport error
	// after which even mutations are safe to retry elsewhere.
	r = NewRemote("http://127.0.0.1:1/dm/", nil)
	_, err = r.CountHLEs("", "", HLEFilter{})
	if !IsUnreachable(err) || !IsDialError(err) {
		t.Fatalf("refused conn: unreachable=%v dial=%v (%v)", IsUnreachable(err), IsDialError(err), err)
	}
}

func TestRemoteTimeout(t *testing.T) {
	// A hung server: the client's deadline turns the call into a
	// transport error instead of blocking forever.
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer slow.Close()
	defer close(release)

	r := &Remote{
		BaseURL: slow.URL + "/dm/",
		Client:  &http.Client{Timeout: 50 * time.Millisecond},
	}
	start := time.Now()
	_, err := r.QueryHLEs("", "", HLEFilter{})
	if !IsUnreachable(err) {
		t.Fatalf("timeout: err = %v, want transport error", err)
	}
	if IsDialError(err) {
		t.Fatal("timeout after connect classified as dial error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: call took %v", elapsed)
	}
}

func TestRemoteUnitsInRange(t *testing.T) {
	remote, d := newRemotePair(t)
	loadDays(t, d, 1)
	units, err := remote.UnitsInRange("", "", 0, 600)
	if err != nil || len(units) != 1 {
		t.Fatalf("units = %v %v", units, err)
	}
	if units[0].Photons == 0 || units[0].ItemID == "" {
		t.Fatalf("unit = %+v", units[0])
	}
}

// legacyReply and legacyReplyBytes are the reply as the two-pass server
// built it: the result marshalled on its own into a RawMessage, which the
// encoder then re-scanned. The one-pass encodeReply must produce the same
// bytes, since StreamCorder and examples/cluster speak /dm/ too.
type legacyReply struct {
	Error        string          `json:"error,omitempty"`
	Denied       bool            `json:"denied,omitempty"`
	Unavailable  bool            `json:"unavailable,omitempty"`
	Overloaded   bool            `json:"overloaded,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
}

func legacyReplyBytes(result any, err error) []byte {
	var reply legacyReply
	if err != nil {
		reply.Error = err.Error()
		reply.Denied = IsDenied(err)
		reply.Unavailable = IsDBUnavailable(err)
		if overload.IsOverload(err) {
			reply.Overloaded = true
			if ra, ok := overload.RetryAfterOf(err); ok {
				reply.RetryAfterMS = int64(ra / time.Millisecond)
			}
		}
	} else if raw, merr := json.Marshal(result); merr != nil {
		reply.Error = merr.Error()
	} else {
		reply.Result = raw
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(reply)
	return buf.Bytes()
}

func TestReplyBytesMatchTwoPassEncoding(t *testing.T) {
	odd := "a<b>&c \"q\" — Ünïcödé ☀    \xff"
	hle := &schema.HLE{ID: "hle-1", Owner: odd, KindHint: "flare", TStart: 1.5, TStop: 2e21, Public: true}
	cases := []struct {
		name   string
		result any
		err    error
	}{
		{"nil", nil, nil},
		{"pong", "pong", nil},
		{"escaped string", odd, nil},
		{"int", 42, nil},
		{"hle", hle, nil},
		{"hle list", []*schema.HLE{hle, {ID: "hle-2"}}, nil},
		{"nil slice", []*schema.HLE(nil), nil},
		{"empty slice", []*schema.HLE{}, nil},
		{"typed nil", (*schema.ANA)(nil), nil},
		{"bytes", &ItemData{ItemID: "i", Bytes: []byte{0, 1, 2, '<'}}, nil},
		{"NaN", &schema.HLE{ID: "hle-nan", TStart: math.NaN()}, nil},
		{"NaN in list", []float64{1, math.Inf(1)}, nil},
		{"plain error", nil, fmt.Errorf("dm: no such HLE %s", odd)},
		{"denied", nil, errDenied("delete", "hle-1")},
		{"unavailable", nil, &DBUnavailableError{Err: fmt.Errorf("dial refused")}},
		{"overloaded", nil, &overload.Error{Tier: "dm", RetryAfter: 250 * time.Millisecond}},
	}
	for _, c := range cases {
		got, want := encodeReply(c.result, c.err), legacyReplyBytes(c.result, c.err)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: one pass %q, two passes %q", c.name, got, want)
		}
	}
	if got := string(encodeReply(math.NaN(), nil)); !strings.Contains(got, `"error":"json: unsupported value: NaN"`) {
		t.Errorf("NaN result: reply %s, want the marshal error", got)
	}

	// Requests too: args marshalled in place equal args marshalled first.
	type legacyEnvelope struct {
		Token string          `json:"token,omitempty"`
		IP    string          `json:"ip,omitempty"`
		Args  json.RawMessage `json:"args,omitempty"`
	}
	for _, args := range []any{HLEFilter{Kind: odd, Limit: 100}, struct{ ID string }{odd}, hle,
		(*schema.HLE)(nil), json.RawMessage("{}")} {
		raw, err := json.Marshal(args)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(legacyEnvelope{Token: "tok", IP: "10.0.0.1", Args: raw})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rpcEnvelope{Token: "tok", IP: "10.0.0.1", Args: args})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("args %T: one pass %s, two passes %s", args, got, want)
		}
	}
}

// TestRemoteDecodeErrors: a reply whose result has the wrong shape is a
// plain error, as the two-pass client reported it, so the gateway does not
// fail over on it; a reply that is not JSON is a transport error. On the
// server, explicit null args stand for the zero value.
func TestRemoteDecodeErrors(t *testing.T) {
	wrongShape := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"result":"not a list"}`)
	}))
	defer wrongShape.Close()
	r := NewRemote(wrongShape.URL+"/dm/", nil)
	if _, err := r.ListCatalogs("", ""); err == nil || IsUnreachable(err) {
		t.Fatalf("wrong-shaped result: err = %v, want a plain error", err)
	}
	truncated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"result":[{"ID":"cat-`)
	}))
	defer truncated.Close()
	r = NewRemote(truncated.URL+"/dm/", nil)
	if _, err := r.ListCatalogs("", ""); !IsUnreachable(err) {
		t.Fatalf("truncated reply: err = %v, want a transport error", err)
	}

	remote, _ := newRemotePair(t)
	resp, err := http.Post(remote.BaseURL+"count-hles", "application/json", strings.NewReader(`{"args":null}`))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Error  string
		Result *int
	}
	derr := json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if derr != nil || reply.Error != "" || reply.Result == nil || *reply.Result != 0 {
		t.Fatalf("null args: reply %+v (decode %v), want a zero-filter count", reply, derr)
	}
	// A token of the wrong type is a malformed envelope, not an app error.
	resp, err = http.Post(remote.BaseURL+"count-hles", "application/json", strings.NewReader(`{"token":5,"args":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("token of the wrong type: status %d, want 400", resp.StatusCode)
	}
}

// BenchmarkRedirectRoundTrip times one redirect hop as a browse page pays
// it: a QueryHLEs call through Remote to a Server over loopback HTTP,
// answered with 100 HLEs.
func BenchmarkRedirectRoundTrip(b *testing.B) {
	d := newTestDM(b)
	sys := d.systemSession()
	for i := 0; i < 100; i++ {
		if _, err := d.CreateHLE(sys, &schema.HLE{KindHint: "flare", Public: true,
			TStart: float64(i), TStop: float64(i + 1), Version: 1, CalibVersion: 1}); err != nil {
			b.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(Local{DM: d}, "/dm/").Mux())
	defer srv.Close()
	remote := NewRemote(srv.URL+"/dm/", nil)
	f := HLEFilter{Kind: "flare", Limit: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hles, err := remote.QueryHLEs("", "", f)
		if err != nil || len(hles) != 100 {
			b.Fatalf("%d HLEs, %v", len(hles), err)
		}
	}
}
