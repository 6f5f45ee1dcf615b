package dm

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// Sessions (§5.3). "Each request to the DM contains user authentication to
// retrieve the associated user profile (user rights, configuration,
// constraints)... Profile, status information and view are stored in
// sessions. ... The DM caches up to three sessions per user (one for
// analysis, HLEs, and catalogues each). The cache lookup algorithm uses the
// network IP and cookies to match clients with their sessions."

// User groups.
const (
	GroupAdmin     = "admin"
	GroupScientist = "scientist"
	GroupPublic    = "public"
)

// Rights, comma-separated in the user profile.
const (
	RightBrowse   = "browse"
	RightDownload = "download"
	RightAnalyze  = "analyze"
	RightUpload   = "upload"
)

// Session kinds — one cached session per user per kind.
const (
	SessionHLE     = "hle"
	SessionANA     = "ana"
	SessionCatalog = "catalog"
)

// Session is an authenticated context.
type Session struct {
	Token    string
	User     string
	Group    string
	Rights   map[string]bool
	Kind     string
	IP       string
	Created  float64
	LastUsed float64
}

// Super reports whether the session may see and edit all committed data
// (the §6.1 "super-user" access rule).
func (s *Session) Super() bool { return s != nil && s.Group == GroupAdmin }

// Has reports whether the session holds a right. Nil sessions (anonymous
// web visitors) hold only browse.
func (s *Session) Has(right string) bool {
	if s == nil {
		return right == RightBrowse
	}
	return s.Rights[right]
}

type deniedError struct{ op, what string }

func (e deniedError) Error() string { return fmt.Sprintf("dm: access denied: %s %s", e.op, e.what) }

func errDenied(op, what string) error { return deniedError{op, what} }

// IsDenied reports whether err is an access-control rejection.
func IsDenied(err error) bool {
	_, ok := err.(deniedError)
	return ok
}

// mayRead implements the privacy constraint: "only public data may be read
// or processed by other users" (§5.3), with super-users exempt.
func (d *DM) mayRead(s *Session, owner string, public bool) bool {
	if public {
		return true
	}
	if s == nil {
		return false
	}
	return s.Super() || s.User == owner
}

// mayEdit implements ownership: "Only the owner may change or delete
// private data" (§5.5).
func (d *DM) mayEdit(s *Session, owner string) bool {
	if s == nil {
		return false
	}
	return s.Super() || s.User == owner
}

// visibilityOr returns the disjunctive filter appended to domain queries:
// public tuples, plus the caller's own (§5.5: "The system typically appends
// the user id to all queries").
func visibilityOr(s *Session) []minidb.Pred {
	if s.Super() {
		return nil
	}
	or := []minidb.Pred{{Col: "public", Op: minidb.OpEq, Val: minidb.Bo(true)}}
	if s != nil {
		or = append(or, minidb.Pred{Col: "owner", Op: minidb.OpEq, Val: minidb.S(s.User)})
	}
	return or
}

// sessionCache holds live sessions: by token for request lookup, and by
// (user, kind) to cap each user at three cached sessions.
type sessionCache struct {
	mu      sync.Mutex
	byToken map[string]*Session
	byUser  map[string]map[string]*Session // user -> kind -> session
}

func newSessionCache() *sessionCache {
	return &sessionCache{
		byToken: make(map[string]*Session),
		byUser:  make(map[string]map[string]*Session),
	}
}

func (c *sessionCache) put(s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kinds := c.byUser[s.User]
	if kinds == nil {
		kinds = make(map[string]*Session)
		c.byUser[s.User] = kinds
	}
	if old := kinds[s.Kind]; old != nil {
		delete(c.byToken, old.Token) // one session per user per kind
	}
	kinds[s.Kind] = s
	c.byToken[s.Token] = s
}

func (c *sessionCache) lookup(token, ip string) *Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byToken[token]
	if s == nil || (s.IP != "" && ip != "" && s.IP != ip) {
		return nil
	}
	s.LastUsed = nowSecs()
	return s
}

func (c *sessionCache) drop(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.byToken[token]; s != nil {
		delete(c.byToken, token)
		if kinds := c.byUser[s.User]; kinds != nil {
			delete(kinds, s.Kind)
		}
	}
}

func hashPassword(user, password string) string {
	sum := sha256.Sum256([]byte("hedc:" + user + ":" + password))
	return hex.EncodeToString(sum[:])
}

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("dm: token entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// CreateUser registers an account. HEDC requires an account for anything
// beyond browsing public data (§5.5).
func (d *DM) CreateUser(userID, password, group string, rights ...string) error {
	if userID == "" || strings.ContainsAny(userID, " \t\n") {
		return fmt.Errorf("dm: invalid user id %q", userID)
	}
	switch group {
	case GroupAdmin, GroupScientist, GroupPublic:
	default:
		return fmt.Errorf("dm: unknown group %q", group)
	}
	err := d.exec(schema.TableUsers, func(tx minidb.Tx) error {
		_, err := tx.Insert(schema.TableUsers, minidb.Row{
			minidb.S(userID),
			minidb.S(hashPassword(userID, password)),
			minidb.S(group),
			minidb.S(strings.Join(rights, ",")),
			minidb.S("active"),
			minidb.F(nowSecs()),
		})
		return err
	})
	if err == nil {
		d.stats.Edits.Add(1)
	}
	return err
}

// Authenticate validates credentials and returns a cached session of the
// given kind. It costs one database query and one update (§7.2).
func (d *DM) Authenticate(userID, password, ip, kind string) (*Session, error) {
	switch kind {
	case SessionHLE, SessionANA, SessionCatalog:
	default:
		return nil, fmt.Errorf("dm: unknown session kind %q", kind)
	}
	res, err := d.query(minidb.Query{ // the one query
		Table: schema.TableUsers,
		Where: []minidb.Pred{{Col: "user_id", Op: minidb.OpEq, Val: minidb.S(userID)}},
	})
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, errDenied("authenticate", userID)
	}
	row := res.Rows[0]
	if row[1].Str() != hashPassword(userID, password) {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("authenticate", userID)
	}
	if row[4].Str() != "active" {
		d.stats.AccessDenied.Add(1)
		return nil, errDenied("authenticate (inactive)", userID)
	}
	// The one update: session bookkeeping on the profile row.
	updated := row.Clone()
	updated[4] = minidb.S("active")
	if err := d.routeDB(schema.TableUsers).Update(schema.TableUsers, res.RowIDs[0], updated); err != nil {
		return nil, err
	}
	d.stats.Edits.Add(1)

	rights := make(map[string]bool)
	for _, r := range strings.Split(row[3].Str(), ",") {
		if r != "" {
			rights[r] = true
		}
	}
	s := &Session{
		Token:   newToken(),
		User:    userID,
		Group:   row[2].Str(),
		Rights:  rights,
		Kind:    kind,
		IP:      ip,
		Created: nowSecs(),
	}
	s.LastUsed = s.Created
	d.sessions.put(s)
	return s, nil
}

// SessionFor resolves a request's token+IP to a cached session (nil for
// anonymous access). Hits and misses are counted for the pooling ablation.
func (d *DM) SessionFor(token, ip string) *Session {
	if token == "" {
		return nil
	}
	s := d.sessions.lookup(token, ip)
	if s == nil {
		d.stats.CacheMisses.Add(1)
		return nil
	}
	d.stats.CacheHits.Add(1)
	return s
}

// Logout drops a cached session.
func (d *DM) Logout(token string) { d.sessions.drop(token) }
