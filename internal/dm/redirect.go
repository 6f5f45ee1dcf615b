package dm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/overload"
	"repro/internal/schema"
)

// Call redirection (§5.4): "there is the possibility of redirecting calls
// from one DM component to another. We use this feature to increase
// capacity in HEDC by adding more nodes to the system." The wire protocol
// is JSON over HTTP (the paper used RMI and HTTP between its Java
// components). Every method of the API interface has a remote counterpart;
// callers go through Dispatcher and cannot tell where execution happened.

// rpc envelope shared by all methods.
type rpcEnvelope struct {
	Token string          `json:"token,omitempty"`
	IP    string          `json:"ip,omitempty"`
	Args  json.RawMessage `json:"args,omitempty"`
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
	Overloaded   bool            `json:"overloaded,omitempty"`
	RetryAfterMS int64           `json:"retry_after_ms,omitempty"`
	Result       json.RawMessage `json:"result,omitempty"`
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
	var env rpcEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.dm != nil {
		s.dm.stats.RedirectsIn.Add(1)
	}
	result, err := s.dispatch(method, env)
	reply := rpcReply{}
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
		raw, merr := json.Marshal(result)
		if merr != nil {
			reply.Error = merr.Error()
		} else {
			reply.Result = raw
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(reply)
}

func decodeArgs(env rpcEnvelope, into interface{}) error {
	if len(env.Args) == 0 {
		return fmt.Errorf("dm: rpc call missing args")
	}
	return json.Unmarshal(env.Args, into)
}

func (s *Server) dispatch(method string, env rpcEnvelope) (interface{}, error) {
	switch method {
	case "ping":
		// Liveness probe for cluster health checks: no auth, no DB touch.
		return "pong", nil
	case "authenticate":
		var a struct{ User, Password, Kind string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.Authenticate(a.User, a.Password, env.IP, a.Kind)
	case "logout":
		return nil, s.api.Logout(env.Token)
	case "query-hles":
		var f HLEFilter
		if err := decodeArgs(env, &f); err != nil {
			return nil, err
		}
		return s.api.QueryHLEs(env.Token, env.IP, f)
	case "count-hles":
		var f HLEFilter
		if err := decodeArgs(env, &f); err != nil {
			return nil, err
		}
		return s.api.CountHLEs(env.Token, env.IP, f)
	case "get-hle":
		var a struct{ ID string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.GetHLE(env.Token, env.IP, a.ID)
	case "analyses-for-hle":
		var a struct{ ID string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.AnalysesForHLE(env.Token, env.IP, a.ID)
	case "get-ana":
		var a struct{ ID string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.GetANA(env.Token, env.IP, a.ID)
	case "list-catalogs":
		return s.api.ListCatalogs(env.Token, env.IP)
	case "create-hle":
		var h schema.HLE
		if err := decodeArgs(env, &h); err != nil {
			return nil, err
		}
		return s.api.CreateHLE(env.Token, env.IP, &h)
	case "import-analysis":
		var a struct {
			ANA   *schema.ANA
			Files []StoredFile
		}
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.ImportAnalysis(env.Token, env.IP, a.ANA, a.Files)
	case "find-existing-analysis":
		var spec schema.ANA
		if err := decodeArgs(env, &spec); err != nil {
			return nil, err
		}
		return s.api.FindExistingAnalysis(env.Token, env.IP, &spec)
	case "publish":
		var a struct{ Kind, ID string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return nil, s.api.Publish(env.Token, env.IP, a.Kind, a.ID)
	case "read-item":
		var a struct{ ItemID string }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.ReadItem(env.Token, env.IP, a.ItemID)
	case "units-in-range":
		var a struct{ T0, T1 float64 }
		if err := decodeArgs(env, &a); err != nil {
			return nil, err
		}
		return s.api.UnitsInRange(env.Token, env.IP, a.T0, a.T1)
	}
	return nil, fmt.Errorf("dm: unknown rpc method %q", method)
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

func (r *Remote) call(method, token, ip string, args, result interface{}) error {
	if r.Source != nil {
		r.Source.stats.RedirectsOut.Add(1)
	}
	env := rpcEnvelope{Token: token, IP: ip}
	if args != nil {
		raw, err := json.Marshal(args)
		if err != nil {
			return err
		}
		env.Args = raw
	} else {
		env.Args = json.RawMessage("{}")
	}
	body, err := json.Marshal(env)
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
	var reply rpcReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return &TransportError{Method: method, Err: err}
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
	if result != nil && len(reply.Result) > 0 {
		return json.Unmarshal(reply.Result, result)
	}
	return nil
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
