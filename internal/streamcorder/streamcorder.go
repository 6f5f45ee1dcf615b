// Package streamcorder implements HEDC's fat client (§6.2): the same
// functionality as the web interface plus client-side processing, caching
// and offline work. Its architecture mirrors the server: core services plus
// dynamically loadable, data-type-sensitive modules ("cordlets").
//
// Two caching strategies are provided, as in the paper:
//
//   - V1 caches data objects in the local file system under a unique but
//     static path computed from fixed object attributes.
//   - V2 adds a local DM + database installation, so cache object retrieval
//     and placement are identical to how the server DM handles its
//     archives. "Every installation of the StreamCorder is, in fact, a
//     clone of the HEDC server" — a V2 client can serve the DM API to
//     peers (§10's peer-to-peer interaction).
package streamcorder

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/archive"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wavelet"
)

// Strategy selects the caching architecture.
type Strategy int

// Cache strategies.
const (
	CacheV1 Strategy = iota + 1 // static-path file cache
	CacheV2                     // local DM + database clone
)

// Stats counts client activity.
type Stats struct {
	CacheHits    atomic.Int64
	CacheMisses  atomic.Int64
	BytesFetched atomic.Int64
	ModuleRuns   atomic.Int64
}

// Module is a cordlet: a dynamically registered handler for one or more
// data formats. The client picks modules by the data type of the object in
// question and keeps the shared context across them.
type Module interface {
	Formats() []string
	// Handle processes a fetched item and returns a human-readable
	// rendering. ctx is the shared, mutable module context.
	Handle(ctx map[string]string, item *dm.ItemData) (string, error)
}

// Client is one StreamCorder installation.
type Client struct {
	api      dm.API
	token    string
	ip       string
	strategy Strategy

	// V1 state.
	cacheDir string

	// V2 state: the local HEDC clone.
	localDM   *dm.DM
	localSess *dm.Session

	mu      sync.Mutex
	modules map[string][]Module // format -> modules
	context map[string]string   // kept across all modules (§6.2)

	stats Stats
}

// Options configures a client.
type Options struct {
	API      dm.API
	Strategy Strategy
	Dir      string // cache / clone directory
	ip       string // reported client address
}

// New builds a StreamCorder. For CacheV2 a full local DM (database +
// archive) is installed under Dir using the same schema as the server.
func New(opts Options) (*Client, error) {
	if opts.API == nil {
		return nil, fmt.Errorf("streamcorder: API required")
	}
	if opts.Strategy == 0 {
		opts.Strategy = CacheV1
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("streamcorder: cache directory required")
	}
	c := &Client{
		api: opts.API, strategy: opts.Strategy, ip: opts.ip,
		cacheDir: opts.Dir,
		modules:  make(map[string][]Module),
		context:  make(map[string]string),
	}
	if opts.Strategy == CacheV2 {
		// "The second version adds a local DBMS installation for dynamic
		// object references and meta data caching ... the schema used
		// locally is the same as the one on the server."
		db, err := minidb.Open(filepath.Join(opts.Dir, "db"), schema.AllSchemas()...)
		if err != nil {
			return nil, err
		}
		arch, err := archive.NewLake("local-0", archive.Disk, filepath.Join(opts.Dir, "archive"), 0)
		if err != nil {
			return nil, err
		}
		local, err := dm.Open(dm.Options{
			Node: "streamcorder", MetaDB: db,
			DefaultArchive: "local-0",
			Logger:         log.New(io.Discard, "", 0),
		})
		if err != nil {
			return nil, err
		}
		// Register the local archive unless a previous run already did.
		if db.TableLen(schema.TableLocArchives) == 0 {
			if err := local.RegisterArchive(arch, "/local"); err != nil {
				return nil, err
			}
		} else if err := local.Archives().Add(arch); err != nil {
			return nil, err
		}
		c.localDM = local
	}
	for _, m := range defaultModules() {
		c.RegisterModule(m)
	}
	return c, nil
}

// Stats exposes the counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Login authenticates against the (possibly remote) server DM.
func (c *Client) Login(user, password string) error {
	info, err := c.api.Authenticate(user, password, c.ip, dm.SessionANA)
	if err != nil {
		return err
	}
	c.token = info.Token
	return nil
}

// QueryHLEs browses events on the server.
func (c *Client) QueryHLEs(f dm.HLEFilter) ([]*schema.HLE, error) {
	return c.api.QueryHLEs(c.token, c.ip, f)
}

// AnalysesForHLE lists analyses on the server.
func (c *Client) AnalysesForHLE(hleID string) ([]*schema.ANA, error) {
	return c.api.AnalysesForHLE(c.token, c.ip, hleID)
}

// ListCatalogs lists the server's catalogs.
func (c *Client) ListCatalogs() ([]*dm.Catalog, error) {
	return c.api.ListCatalogs(c.token, c.ip)
}

// FetchItem returns an item's bytes, through the cache. All large data
// objects are cached, including data segments used in local processing.
func (c *Client) FetchItem(itemID string) (*dm.ItemData, error) {
	if item, ok := c.cacheGet(itemID); ok {
		c.stats.CacheHits.Add(1)
		return item, nil
	}
	c.stats.CacheMisses.Add(1)
	item, err := c.api.ReadItem(c.token, c.ip, itemID)
	if err != nil {
		return nil, err
	}
	c.stats.BytesFetched.Add(int64(len(item.Bytes)))
	if err := c.cachePut(item); err != nil {
		return nil, fmt.Errorf("streamcorder: cache store: %w", err)
	}
	return item, nil
}

// v1Path computes the unique, static cache path from fixed attributes.
func (c *Client) v1Path(itemID string) string {
	return filepath.Join(c.cacheDir, "objects", itemID+".obj")
}

func (c *Client) cacheGet(itemID string) (*dm.ItemData, bool) {
	switch c.strategy {
	case CacheV1:
		data, err := os.ReadFile(c.v1Path(itemID))
		if err != nil {
			return nil, false
		}
		format, _ := os.ReadFile(c.v1Path(itemID) + ".fmt")
		return &dm.ItemData{ItemID: itemID, Bytes: data, Format: string(format)}, true
	case CacheV2:
		data, rn, err := c.localDM.ReadItem(c.localSession(), itemID)
		if err != nil {
			return nil, false
		}
		return &dm.ItemData{ItemID: itemID, Bytes: data, Format: rn.Format, Path: rn.Path}, true
	}
	return nil, false
}

func (c *Client) cachePut(item *dm.ItemData) error {
	switch c.strategy {
	case CacheV1:
		p := c.v1Path(item.ItemID)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, item.Bytes, 0o644); err != nil {
			return err
		}
		return os.WriteFile(p+".fmt", []byte(item.Format), 0o644)
	case CacheV2:
		// Identical to server-side data loading: the local DM stores the
		// file in its archive and registers location entries.
		format := item.Format
		if format == "" {
			format = "blob"
		}
		return c.localDM.StoreItemFiles(item.ItemID, dm.ImportUser, true, []dm.StoredFile{
			{Suffix: "", Format: format, Data: item.Bytes},
		})
	}
	return fmt.Errorf("streamcorder: unknown strategy %d", c.strategy)
}

// localSession returns the clone's local session (V2 only).
func (c *Client) localSession() *dm.Session { return c.localSess }

// InitClone bootstraps the V2 local repository (idempotent).
func (c *Client) InitClone(password string) error {
	if c.strategy != CacheV2 {
		return fmt.Errorf("streamcorder: clone requires the V2 strategy")
	}
	if err := c.localDM.Bootstrap(password); err != nil {
		return err
	}
	sess, err := c.localDM.Authenticate(dm.ImportUser, password, "127.0.0.1", dm.SessionHLE)
	if err != nil {
		return err
	}
	c.localSess = sess
	return nil
}

// CloneCatalog mirrors a server catalog's metadata — the HLE tuples and
// their analyses — into the local database, making the installation "a
// clone of the HEDC server". File data arrives lazily through the cache.
func (c *Client) CloneCatalog(catalogID string) (hles, anas int, err error) {
	if c.strategy != CacheV2 || c.localSess == nil {
		return 0, 0, fmt.Errorf("streamcorder: clone not initialized")
	}
	events, err := c.api.QueryHLEs(c.token, c.ip, dm.HLEFilter{Catalog: catalogID})
	if err != nil {
		return 0, 0, err
	}
	db := c.localDM.DomainDB()
	for _, h := range events {
		if _, err := db.Insert(schema.TableHLE, h.ToRow()); err != nil {
			continue // already cloned
		}
		hles++
		list, err := c.api.AnalysesForHLE(c.token, c.ip, h.ID)
		if err != nil {
			return hles, anas, err
		}
		for _, a := range list {
			if _, err := db.Insert(schema.TableANA, a.ToRow()); err != nil {
				continue
			}
			anas++
		}
	}
	return hles, anas, nil
}

// LocalHLEs queries the clone's database offline.
func (c *Client) LocalHLEs(f minidb.Query) (*minidb.Result, error) {
	if c.strategy != CacheV2 {
		return nil, fmt.Errorf("streamcorder: no local database (V1 cache)")
	}
	if f.Table == "" {
		f.Table = schema.TableHLE
	}
	return c.localDM.DomainDB().Query(f)
}

// PeerHandler exposes the clone's DM API over HTTP, so other StreamCorders
// (or HEDC itself) can pull data from this client: "requests may also be
// sent to peer clients to allow peer to peer interaction" (§10).
func (c *Client) PeerHandler() (http.Handler, error) {
	if c.strategy != CacheV2 {
		return nil, fmt.Errorf("streamcorder: peer serving requires the V2 clone")
	}
	return dm.NewServer(dm.Local{DM: c.localDM}, "/dm/").Mux(), nil
}

// ProgressiveLightcurve fetches a wavelet view item and reconstructs its
// lightcurve at each requested coefficient fraction, smallest first — the
// progressive download-decode-refine loop of §6.3. The item is fetched
// once; every refinement is local.
func (c *Client) ProgressiveLightcurve(viewItemID string, timeBins int, fracs []float64) ([][]float64, error) {
	item, err := c.FetchItem(viewItemID)
	if err != nil {
		return nil, err
	}
	enc, err := wavelet.Parse(item.Bytes)
	if err != nil {
		return nil, err
	}
	v := &wavelet.View{TimeBins: timeBins, EnergyBins: enc.OrigH, Enc: enc}
	if enc.OrigW < timeBins {
		v.TimeBins = enc.OrigW
	}
	sort.Float64s(fracs)
	out := make([][]float64, 0, len(fracs))
	for _, f := range fracs {
		out = append(out, v.Lightcurve(f))
	}
	return out, nil
}

// RegisterModule installs a cordlet for its declared formats.
func (c *Client) RegisterModule(m Module) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range m.Formats() {
		c.modules[f] = append(c.modules[f], m)
	}
}

// ModulesFor returns the cordlets applicable to a data format — the
// client "offers different modules to the user depending on the context
// ... determined by the data type of the view or analysis in question".
func (c *Client) ModulesFor(format string) []Module {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Module(nil), c.modules[format]...)
}

// RunModules fetches an item and runs every applicable cordlet over it,
// returning their renderings.
func (c *Client) RunModules(itemID string) ([]string, error) {
	item, err := c.FetchItem(itemID)
	if err != nil {
		return nil, err
	}
	mods := c.ModulesFor(item.Format)
	if len(mods) == 0 {
		return nil, fmt.Errorf("streamcorder: no module handles format %q", item.Format)
	}
	var out []string
	c.mu.Lock()
	ctx := c.context
	c.mu.Unlock()
	for _, m := range mods {
		r, err := m.Handle(ctx, item)
		if err != nil {
			return out, err
		}
		c.stats.ModuleRuns.Add(1)
		out = append(out, r)
	}
	return out, nil
}

// Context returns the shared module context value for a key.
func (c *Client) Context(key string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.context[key]
}

// defaultModules returns the built-in cordlets.
func defaultModules() []Module {
	return []Module{gifModule{}, waveletModule{}, logModule{}, phoenixModule{}}
}

type phoenixModule struct{}

func (phoenixModule) Formats() []string { return []string{"phx2"} }
func (phoenixModule) Handle(ctx map[string]string, item *dm.ItemData) (string, error) {
	p, err := telemetry.ParsePhoenix(item.Bytes)
	if err != nil {
		return "", err
	}
	ctx["last_spectrogram"] = item.ItemID
	return fmt.Sprintf("phoenix %s: %dx%d bins, %.0f-%.0f MHz, t=[%.0f,%.0f]s",
		p.Name(), p.FreqBins, p.TimeBins, p.FreqMin, p.FreqMax, p.TStart, p.TStop), nil
}

type gifModule struct{}

func (gifModule) Formats() []string { return []string{"gif"} }
func (gifModule) Handle(ctx map[string]string, item *dm.ItemData) (string, error) {
	if len(item.Bytes) < 6 || string(item.Bytes[:3]) != "GIF" {
		return "", fmt.Errorf("gif-viewer: %s is not a GIF", item.ItemID)
	}
	ctx["last_image"] = item.ItemID
	return fmt.Sprintf("gif %s: %d bytes", item.ItemID, len(item.Bytes)), nil
}

type waveletModule struct{}

func (waveletModule) Formats() []string { return []string{"wavelet"} }
func (waveletModule) Handle(ctx map[string]string, item *dm.ItemData) (string, error) {
	enc, err := wavelet.Parse(item.Bytes)
	if err != nil {
		return "", err
	}
	ctx["last_view"] = item.ItemID
	return fmt.Sprintf("view %s: %dx%d, %d coefficients", item.ItemID, enc.OrigW, enc.OrigH, len(enc.Coeffs)), nil
}

type logModule struct{}

func (logModule) Formats() []string { return []string{"log", "params"} }
func (logModule) Handle(ctx map[string]string, item *dm.ItemData) (string, error) {
	return string(item.Bytes), nil
}
