package dm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/overload"
	"repro/internal/schema"
)

// Call redirection (§5.4): "there is the possibility of redirecting calls
// from one DM component to another. We use this feature to increase
// capacity in HEDC by adding more nodes to the system." The wire protocol
// is JSON over HTTP (the paper used RMI and HTTP between its Java
// components). Every method of the API interface has a remote counterpart:
// Remote implements API by shipping each call to a Server, so callers hold
// an API and cannot tell where execution happened.
//
// Each direction takes one JSON pass. The client marshals its arguments in
// place inside the envelope, and the server decodes them straight into the
// type the method (the URL path) names. The server marshals the result in
// place inside the reply, and the client decodes it straight into the
// caller's result.

// rpcEnvelope is a request body; Args holds the method's argument value.
type rpcEnvelope struct {
	Token string `json:"token,omitempty"`
	IP    string `json:"ip,omitempty"`
	Args  any    `json:"args,omitempty"`
}

type rpcReply struct {
	Error  string `json:"error,omitempty"`
	Denied bool   `json:"denied,omitempty"`
	// Unavailable flags errors caused by the shared database tier not
	// answering, so the caller can distinguish "this replica's database
	// path is dead" (true) from "this replica rejected the request"
	// (false) without parsing error strings.
	Unavailable bool `json:"unavailable,omitempty"`
	// Overloaded flags a load-shed refusal — from this replica's own
	// admission control or relayed from the database tier's socket-level
	// pushback. RetryAfterMS carries the shed's backoff hint so upstream
	// tiers can pace retries instead of stampeding. Overload is not a
	// replica-health signal: failing over a shed request to a sibling
	// only moves the stampede around.
	Overloaded   bool  `json:"overloaded,omitempty"`
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Result holds the method's result value: the server's to marshal,
	// or a pointer to the caller's result for the client to decode into.
	Result any `json:"result,omitempty"`
}

// Server exposes a DM node's API over HTTP under prefix (default "/dm/").
type Server struct {
	api    API
	dm     *DM // for the redirects-in counter; may be nil
	prefix string
}

// NewServer wraps an API for remote callers.
func NewServer(api API, prefix string) *Server {
	if prefix == "" {
		prefix = "/dm/"
	}
	s := &Server{api: api, prefix: prefix}
	if l, ok := api.(Local); ok {
		s.dm = l.DM
	}
	return s
}

// Mux returns an http handler serving the DM RPC endpoints.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(s.prefix, s.handle)
	return mux
}

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	method := r.URL.Path[len(s.prefix):]
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	result, err := s.dispatch(method, body)
	var bad *badEnvelopeError
	if errors.As(err, &bad) {
		http.Error(w, bad.Error(), http.StatusBadRequest)
		return
	}
	if s.dm != nil {
		s.dm.stats.RedirectsIn.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(encodeReply(result, err))
}

// encodeReply renders a call's outcome as the reply body, newline-ended.
// A result that cannot be marshalled (a NaN float, say) becomes the reply's
// error.
func encodeReply(result any, err error) []byte {
	var reply rpcReply
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
	} else {
		reply.Result = result
		if result == nil {
			reply.Result = json.RawMessage("null") // still sent as "result":null
		}
	}
	b, merr := json.Marshal(reply)
	if merr != nil {
		b, _ = json.Marshal(rpcReply{Error: merr.Error()})
	}
	return append(b, '\n')
}

// badEnvelopeError marks a request body that is not a well-formed
// envelope; the server answers it with HTTP 400.
type badEnvelopeError struct{ err error }

func (e *badEnvelopeError) Error() string { return e.err.Error() }

// decodeBody decodes a request body into v in one pass. A body that is not
// JSON, or whose token or ip has the wrong type, is a badEnvelopeError;
// args of the wrong shape are the method's plain error.
func decodeBody(body []byte, v any) error {
	err := json.Unmarshal(body, v)
	var te *json.UnmarshalTypeError
	if err == nil || errors.As(err, &te) && inField(te.Field, "args") {
		return err
	}
	return &badEnvelopeError{err}
}

// inField reports whether a json.UnmarshalTypeError's Field path lies in
// the top-level field name.
func inField(path, name string) bool {
	return path == name || strings.HasPrefix(path, name+".")
}

// serve decodes body straight into the method's argument type A and runs
// call. Args are required: an absent "args" is an error, while an explicit
// null stands for A's zero value.
func serve[A any](body []byte, call func(token, ip string, a *A) (any, error)) (any, error) {
	var args *A
	req := struct {
		Token string `json:"token"`
		IP    string `json:"ip"`
		// Args stays pointing at a nil args when the key is absent and
		// is set to nil by an explicit null.
		Args **A `json:"args"`
	}{Args: &args}
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	switch {
	case req.Args == nil:
		args = new(A)
	case args == nil:
		return nil, fmt.Errorf("dm: rpc call missing args")
	}
	return call(req.Token, req.IP, args)
}

// serveNoArgs decodes the envelope of a method that takes no arguments;
// any args in the body are skipped.
func serveNoArgs(body []byte, call func(token, ip string) (any, error)) (any, error) {
	var req struct {
		Token string `json:"token"`
		IP    string `json:"ip"`
	}
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	return call(req.Token, req.IP)
}

func (s *Server) dispatch(method string, body []byte) (any, error) {
	switch method {
	case "ping":
		// Liveness probe for cluster health checks: no auth, no DB touch.
		return serveNoArgs(body, func(string, string) (any, error) { return "pong", nil })
	case "authenticate":
		return serve(body, func(_, ip string, a *struct{ User, Password, Kind string }) (any, error) {
			return s.api.Authenticate(a.User, a.Password, ip, a.Kind)
		})
	case "logout":
		return serveNoArgs(body, func(token, _ string) (any, error) { return nil, s.api.Logout(token) })
	case "query-hles":
		return serve(body, func(token, ip string, f *HLEFilter) (any, error) {
			return s.api.QueryHLEs(token, ip, *f)
		})
	case "count-hles":
		return serve(body, func(token, ip string, f *HLEFilter) (any, error) {
			return s.api.CountHLEs(token, ip, *f)
		})
	case "get-hle":
		return serve(body, func(token, ip string, a *struct{ ID string }) (any, error) {
			return s.api.GetHLE(token, ip, a.ID)
		})
	case "analyses-for-hle":
		return serve(body, func(token, ip string, a *struct{ ID string }) (any, error) {
			return s.api.AnalysesForHLE(token, ip, a.ID)
		})
	case "get-ana":
		return serve(body, func(token, ip string, a *struct{ ID string }) (any, error) {
			return s.api.GetANA(token, ip, a.ID)
		})
	case "list-catalogs":
		return serveNoArgs(body, func(token, ip string) (any, error) { return s.api.ListCatalogs(token, ip) })
	case "create-hle":
		return serve(body, func(token, ip string, h *schema.HLE) (any, error) {
			return s.api.CreateHLE(token, ip, h)
		})
	case "import-analysis":
		return serve(body, func(token, ip string, a *struct {
			ANA   *schema.ANA
			Files []StoredFile
		}) (any, error) {
			return s.api.ImportAnalysis(token, ip, a.ANA, a.Files)
		})
	case "find-existing-analysis":
		return serve(body, func(token, ip string, spec *schema.ANA) (any, error) {
			return s.api.FindExistingAnalysis(token, ip, spec)
		})
	case "publish":
		return serve(body, func(token, ip string, a *struct{ Kind, ID string }) (any, error) {
			return nil, s.api.Publish(token, ip, a.Kind, a.ID)
		})
	case "read-item":
		return serve(body, func(token, ip string, a *struct{ ItemID string }) (any, error) {
			return s.api.ReadItem(token, ip, a.ItemID)
		})
	case "units-in-range":
		return serve(body, func(token, ip string, a *struct{ T0, T1 float64 }) (any, error) {
			return s.api.UnitsInRange(token, ip, a.T0, a.T1)
		})
	}
	return serveNoArgs(body, func(string, string) (any, error) {
		return nil, fmt.Errorf("dm: unknown rpc method %q", method)
	})
}

// Remote is an API implementation that ships every call to a DM server.
type Remote struct {
	BaseURL string // e.g. "http://node-2:8080/dm/"
	Client  *http.Client
	// Source DM (optional) counts outgoing redirects.
	Source *DM
}

var _ API = (*Remote)(nil)

// NewRemote builds a remote API endpoint with a sane default client.
func NewRemote(baseURL string, source *DM) *Remote {
	return &Remote{
		BaseURL: baseURL,
		Client:  &http.Client{Timeout: 30 * time.Second},
		Source:  source,
	}
}

// TransportError marks a call that failed before a well-formed reply
// arrived: dial failure, broken connection, HTTP-level error, mangled
// response. Application errors (including denials) never wear it. The
// cluster gateway keys failover on this distinction — a TransportError
// from a replica means the replica, not the request, is suspect.
type TransportError struct {
	Method string
	Err    error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dm: remote call %s: %v", e.Method, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// IsUnreachable reports whether err is a transport failure rather than
// an answer from the remote DM.
func IsUnreachable(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}

// IsDialError reports whether err failed during connection establishment
// — before the request could have reached the remote DM. Only such
// failures make retrying a *mutation* on another replica safe; anything
// later may have executed.
func IsDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

func (r *Remote) call(method, token, ip string, args, result any) error {
	if r.Source != nil {
		r.Source.stats.RedirectsOut.Add(1)
	}
	if args == nil {
		args = json.RawMessage("{}")
	}
	body, err := json.Marshal(rpcEnvelope{Token: token, IP: ip, Args: args})
	if err != nil {
		return err
	}
	resp, err := r.Client.Post(r.BaseURL+method, "application/json", bytes.NewReader(body))
	if err != nil {
		return &TransportError{Method: method, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &TransportError{Method: method, Err: fmt.Errorf("http %d", resp.StatusCode)}
	}
	// One pass: the result decodes straight into the caller's value. A
	// result of the wrong shape is a plain error, as from the remote DM;
	// anything else that fails to decode means no well-formed reply came.
	reply := rpcReply{Result: result}
	var resultErr error
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		var te *json.UnmarshalTypeError
		if !errors.As(err, &te) || !inField(te.Field, "result") {
			return &TransportError{Method: method, Err: err}
		}
		resultErr = err
	}
	if reply.Error != "" {
		if reply.Denied {
			return errDenied("remote", reply.Error)
		}
		if reply.Unavailable {
			return &DBUnavailableError{Err: fmt.Errorf("%s", reply.Error)}
		}
		if reply.Overloaded {
			return &overload.Error{
				Tier:       "dm",
				RetryAfter: time.Duration(reply.RetryAfterMS) * time.Millisecond,
			}
		}
		return fmt.Errorf("%s", reply.Error)
	}
	return resultErr
}

// Ping probes the remote DM's liveness.
func (r *Remote) Ping() error {
	var out string
	return r.call("ping", "", "", struct{}{}, &out)
}

// Authenticate implements API.
func (r *Remote) Authenticate(user, password, ip, kind string) (*SessionInfo, error) {
	var out SessionInfo
	err := r.call("authenticate", "", ip, struct{ User, Password, Kind string }{user, password, kind}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Logout implements API.
func (r *Remote) Logout(token string) error {
	return r.call("logout", token, "", struct{}{}, nil)
}

// QueryHLEs implements API.
func (r *Remote) QueryHLEs(token, ip string, f HLEFilter) ([]*schema.HLE, error) {
	var out []*schema.HLE
	if err := r.call("query-hles", token, ip, f, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CountHLEs implements API.
func (r *Remote) CountHLEs(token, ip string, f HLEFilter) (int, error) {
	var out int
	if err := r.call("count-hles", token, ip, f, &out); err != nil {
		return 0, err
	}
	return out, nil
}

// GetHLE implements API.
func (r *Remote) GetHLE(token, ip, id string) (*schema.HLE, error) {
	var out schema.HLE
	if err := r.call("get-hle", token, ip, struct{ ID string }{id}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AnalysesForHLE implements API.
func (r *Remote) AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error) {
	var out []*schema.ANA
	if err := r.call("analyses-for-hle", token, ip, struct{ ID string }{hleID}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetANA implements API.
func (r *Remote) GetANA(token, ip, id string) (*schema.ANA, error) {
	var out schema.ANA
	if err := r.call("get-ana", token, ip, struct{ ID string }{id}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListCatalogs implements API.
func (r *Remote) ListCatalogs(token, ip string) ([]*Catalog, error) {
	var out []*Catalog
	if err := r.call("list-catalogs", token, ip, struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CreateHLE implements API.
func (r *Remote) CreateHLE(token, ip string, h *schema.HLE) (string, error) {
	var out string
	if err := r.call("create-hle", token, ip, h, &out); err != nil {
		return "", err
	}
	return out, nil
}

// ImportAnalysis implements API.
func (r *Remote) ImportAnalysis(token, ip string, a *schema.ANA, files []StoredFile) (string, error) {
	var out string
	err := r.call("import-analysis", token, ip, struct {
		ANA   *schema.ANA
		Files []StoredFile
	}{a, files}, &out)
	if err != nil {
		return "", err
	}
	return out, nil
}

// FindExistingAnalysis implements API.
func (r *Remote) FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error) {
	var out *schema.ANA
	if err := r.call("find-existing-analysis", token, ip, spec, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Publish implements API.
func (r *Remote) Publish(token, ip, kind, id string) error {
	return r.call("publish", token, ip, struct{ Kind, ID string }{kind, id}, nil)
}

// ReadItem implements API.
func (r *Remote) ReadItem(token, ip, itemID string) (*ItemData, error) {
	var out ItemData
	if err := r.call("read-item", token, ip, struct{ ItemID string }{itemID}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// UnitsInRange implements API.
func (r *Remote) UnitsInRange(token, ip string, t0, t1 float64) ([]*UnitInfo, error) {
	var out []*UnitInfo
	if err := r.call("units-in-range", token, ip, struct{ T0, T1 float64 }{t0, t1}, &out); err != nil {
		return nil, err
	}
	return out, nil
}
