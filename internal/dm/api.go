package dm

import (
	"sort"

	"repro/internal/schema"
)

// API is the session-token surface of the DM, the one contract both the
// presentation tier and remote DM nodes program against. It exists so that
// "the calling methods do not know where the code is actually executed"
// (§5.4): Local executes in-process, Remote ships the call to another DM
// node over HTTP, and cluster.Gateway spreads calls over several Remotes.
type API interface {
	Authenticate(user, password, ip, kind string) (*SessionInfo, error)
	Logout(token string) error
	QueryHLEs(token, ip string, f HLEFilter) ([]*schema.HLE, error)
	CountHLEs(token, ip string, f HLEFilter) (int, error)
	GetHLE(token, ip, id string) (*schema.HLE, error)
	AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error)
	GetANA(token, ip, id string) (*schema.ANA, error)
	ListCatalogs(token, ip string) ([]*Catalog, error)
	CreateHLE(token, ip string, h *schema.HLE) (string, error)
	ImportAnalysis(token, ip string, a *schema.ANA, files []StoredFile) (string, error)
	FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error)
	Publish(token, ip, kind, id string) error
	ReadItem(token, ip, itemID string) (*ItemData, error)
	UnitsInRange(token, ip string, t0, t1 float64) ([]*UnitInfo, error)
}

// SessionInfo is the wire form of an authenticated session.
type SessionInfo struct {
	Token  string
	User   string
	Group  string
	Kind   string
	Rights []string
}

// ItemData is the wire form of a resolved, read item.
type ItemData struct {
	ItemID string
	Format string
	Path   string
	Bytes  []byte
}

// Local adapts a *DM to the token-based API surface.
type Local struct {
	DM *DM
}

var _ API = Local{}

func (l Local) session(token, ip string) *Session {
	return l.DM.SessionFor(token, ip)
}

// Authenticate implements API.
func (l Local) Authenticate(user, password, ip, kind string) (*SessionInfo, error) {
	s, err := l.DM.Authenticate(user, password, ip, kind)
	if err != nil {
		return nil, err
	}
	rights := make([]string, 0, len(s.Rights))
	for r := range s.Rights {
		rights = append(rights, r)
	}
	sort.Strings(rights)
	return &SessionInfo{Token: s.Token, User: s.User, Group: s.Group, Kind: s.Kind, Rights: rights}, nil
}

// Logout implements API.
func (l Local) Logout(token string) error {
	l.DM.Logout(token)
	return nil
}

// QueryHLEs implements API.
func (l Local) QueryHLEs(token, ip string, f HLEFilter) ([]*schema.HLE, error) {
	return l.DM.QueryHLEs(l.session(token, ip), f)
}

// CountHLEs implements API.
func (l Local) CountHLEs(token, ip string, f HLEFilter) (int, error) {
	return l.DM.CountHLEs(l.session(token, ip), f)
}

// GetHLE implements API.
func (l Local) GetHLE(token, ip, id string) (*schema.HLE, error) {
	return l.DM.GetHLE(l.session(token, ip), id)
}

// AnalysesForHLE implements API.
func (l Local) AnalysesForHLE(token, ip, hleID string) ([]*schema.ANA, error) {
	return l.DM.AnalysesForHLE(l.session(token, ip), hleID)
}

// GetANA implements API.
func (l Local) GetANA(token, ip, id string) (*schema.ANA, error) {
	return l.DM.GetANA(l.session(token, ip), id)
}

// ListCatalogs implements API.
func (l Local) ListCatalogs(token, ip string) ([]*Catalog, error) {
	return l.DM.ListCatalogs(l.session(token, ip))
}

// CreateHLE implements API.
func (l Local) CreateHLE(token, ip string, h *schema.HLE) (string, error) {
	return l.DM.CreateHLE(l.session(token, ip), h)
}

// ImportAnalysis implements API.
func (l Local) ImportAnalysis(token, ip string, a *schema.ANA, files []StoredFile) (string, error) {
	return l.DM.ImportAnalysis(l.session(token, ip), a, files)
}

// FindExistingAnalysis implements API.
func (l Local) FindExistingAnalysis(token, ip string, spec *schema.ANA) (*schema.ANA, error) {
	return l.DM.FindExistingAnalysis(l.session(token, ip), spec)
}

// Publish implements API.
func (l Local) Publish(token, ip, kind, id string) error {
	return l.DM.Publish(l.session(token, ip), kind, id)
}

// ReadItem implements API.
func (l Local) ReadItem(token, ip, itemID string) (*ItemData, error) {
	data, rn, err := l.DM.ReadItem(l.session(token, ip), itemID)
	if err != nil {
		return nil, err
	}
	return &ItemData{ItemID: itemID, Format: rn.Format, Path: rn.Path, Bytes: data}, nil
}

// UnitsInRange implements API. Raw units are public catalog structure, so
// no per-tuple visibility applies.
func (l Local) UnitsInRange(token, ip string, t0, t1 float64) ([]*UnitInfo, error) {
	return l.DM.UnitsInRange(t0, t1)
}
