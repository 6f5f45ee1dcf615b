// Package core assembles a complete HEDC node from the substrates: the
// metadata database(s), file archives, the Data Management and Processing
// Logic components, the web presentation tier and the synoptic searcher —
// the 3-tier architecture of Figure 1, in one process, exactly as the
// production deployment ran ("we use a single server for the core of the
// system", §1), while remaining transparently extensible to a cluster via
// DM call redirection.
package core

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/colseg"
	"repro/internal/dm"
	"repro/internal/lake"
	"repro/internal/minidb"
	"repro/internal/pl"
	"repro/internal/schema"
	"repro/internal/synoptic"
	"repro/internal/telemetry"
	"repro/internal/web"
)

// Config parameterizes a node.
type Config struct {
	// DataDir is the node's root directory (database, archives). Empty
	// means fully in-memory/temporary storage for the database and a
	// required explicit ArchiveDir.
	DataDir string
	// Node names this instance (default "hedc-0").
	Node string
	// ImportPassword protects the system import account (default "import").
	ImportPassword string
	// URLRoot is the externally visible base URL for download links.
	URLRoot string
	// PartitionDomain puts the domain schema on a second database instance
	// (vertical partitioning, §5.2).
	PartitionDomain bool
	// idlServers is the interpreter pool size (default 2, as deployed).
	idlServers int
	// workers is the PL dispatch pool (default 4).
	workers int
	// SynopticArchives lists remote archives for the synoptic search.
	SynopticArchives []synoptic.Endpoint
	// Logger for operational messages (nil = discard).
	Logger *log.Logger
}

const (
	// maxInSystem is the PL admission limit (§8.1).
	maxInSystem = 20
	// invokeTimeout bounds one analysis execution.
	invokeTimeout = 5 * time.Minute
	// lakeKeepHistory is how many commits of archive history maintenance
	// GC preserves beyond the durable pin set, the operator's time-travel
	// window.
	lakeKeepHistory uint64 = 256
)

// Node is a running HEDC instance.
type Node struct {
	cfg Config

	MetaDB   *minidb.DB
	DomainDB *minidb.DB    // == MetaDB unless partitioned
	Segments *colseg.Store // columnar read path over the domain tables
	DM       *dm.DM
	Dir      *pl.Directory
	Manager  *pl.Manager
	Frontend *pl.Frontend
	Web      *web.Server
	Synoptic *synoptic.Searcher

	anaMu     sync.Mutex
	analyzing map[string]*analyzeCall // Analyze calls in progress, by user and request
}

// analyzeCall is one Analyze in progress. The same user submitting the
// same request again meanwhile waits for it and shares its result.
type analyzeCall struct {
	done chan struct{}
	id   string
	err  error
}

// Start builds and wires a node.
func Start(cfg Config) (*Node, error) {
	if cfg.Node == "" {
		cfg.Node = "hedc-0"
	}
	if cfg.ImportPassword == "" {
		cfg.ImportPassword = "import"
	}
	if cfg.idlServers <= 0 {
		cfg.idlServers = 2
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	n := &Node{cfg: cfg}

	dbDir, domainDir, archDir := "", "", ""
	if cfg.DataDir != "" {
		dbDir = filepath.Join(cfg.DataDir, "db")
		domainDir = filepath.Join(cfg.DataDir, "db-domain")
		archDir = filepath.Join(cfg.DataDir, "archive")
	}

	var err error
	if cfg.PartitionDomain {
		n.MetaDB, err = minidb.Open(dbDir, schema.GenericSchemas()...)
		if err != nil {
			return nil, err
		}
		n.DomainDB, err = minidb.Open(domainDir, schema.DomainSchemas()...)
		if err != nil {
			return nil, err
		}
	} else {
		n.MetaDB, err = minidb.Open(dbDir, schema.AllSchemas()...)
		if err != nil {
			return nil, err
		}
		n.DomainDB = n.MetaDB
	}

	if archDir == "" {
		return nil, fmt.Errorf("core: DataDir is required (archives need a directory)")
	}
	// The ingest archive: every store/delete is a journal commit, so the
	// node serves time-travel reads and survives crashes by journal
	// replay. Only lake directories open; the pre-lake manifest format is
	// not importable.
	arch, err := archive.NewLake("disk-0", archive.Disk, archDir, 0)
	if err != nil {
		return nil, err
	}

	// The columnar segment store shadows the domain database's event
	// catalog; the DM routes aggregate analytics through it. Persisted
	// next to the database so restarts reload instead of rebuilding.
	n.Segments, err = colseg.Open(colseg.Options{
		DB:     n.DomainDB,
		Dir:    filepath.Join(cfg.DataDir, "colseg"),
		Tables: []string{schema.TableEvents},
	})
	if err != nil {
		return nil, err
	}
	if err := n.Segments.RefreshAll(); err != nil {
		cfg.Logger.Printf("colseg initial refresh: %v", err)
	}

	dmOpts := dm.Options{
		Node:           cfg.Node + "/dm",
		MetaDB:         n.MetaDB,
		DefaultArchive: "disk-0",
		URLRoot:        cfg.URLRoot,
		Analytics:      n.Segments,
		Logger:         cfg.Logger,
	}
	if cfg.PartitionDomain {
		dmOpts.DomainDB = n.DomainDB
	}
	n.DM, err = dm.Open(dmOpts)
	if err != nil {
		return nil, err
	}
	alreadyRegistered := n.MetaDB.TableLen(schema.TableLocArchives) > 0
	if alreadyRegistered {
		if err := n.DM.Archives().Add(arch); err != nil {
			return nil, err
		}
	} else if err := n.DM.RegisterArchive(arch, "/archives/disk-0"); err != nil {
		return nil, err
	}
	if err := n.DM.Bootstrap(cfg.ImportPassword); err != nil {
		return nil, err
	}

	// Processing tier.
	n.Dir = pl.NewDirectory()
	n.Manager, err = pl.NewManager(cfg.Node+"/mgr", cfg.idlServers, pl.Routines(), invokeTimeout)
	if err != nil {
		return nil, err
	}
	n.Dir.RegisterManager(n.Manager, "server")
	n.Frontend = pl.NewFrontend(n.Dir, cfg.workers, maxInSystem)
	for _, s := range pl.NewAnalysisStrategies(n.DM) {
		n.Frontend.RegisterStrategy(s)
	}

	// Presentation tier.
	n.Synoptic = synoptic.NewSearcher(cfg.SynopticArchives, 0)
	n.Web = web.New(web.Config{
		API: dm.Local{DM: n.DM}, Frontend: n.Frontend, LocalDM: n.DM,
		Synoptic: n.Synoptic, Node: cfg.Node,
	})
	return n, nil
}

// Handler serves the whole node over HTTP: the web interface at /, the DM
// RPC surface at /dm/ (for remote DMs, StreamCorders and peers).
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", n.Web.Handler())
	mux.Handle("/dm/", dm.NewServer(dm.Local{DM: n.DM}, "/dm/").Mux())
	mux.Handle("/admin/lake/", n.lakeAdminHandler())
	return mux
}

// StartMaintenance launches the node's housekeeping loop: the processing
// directory's heartbeat, periodic database checkpoints, segment refresh
// and lake compaction. It returns a stop function.
func (n *Node) StartMaintenance(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		// The processing directory drops managers whose heartbeat goes
		// stale, and the scheduler only dispatches to live managers — so
		// the local manager's entry must be beaten well inside the
		// staleness window or every analysis fails with "no processing
		// capacity" one StaleAfter after startup.
		beat := n.Dir.StaleAfter / 3
		if beat <= 0 {
			beat = 20 * time.Second
		}
		dirTicker := time.NewTicker(beat)
		defer dirTicker.Stop()
		for {
			select {
			case <-done:
				return
			case <-dirTicker.C:
				_ = n.Dir.Heartbeat(n.Manager.ID())
			case <-ticker.C:
				if err := n.Checkpoint(); err != nil {
					n.cfg.Logger.Printf("maintenance checkpoint: %v", err)
				}
				if err := n.Segments.RefreshAll(); err != nil {
					n.cfg.Logger.Printf("maintenance segment refresh: %v", err)
				}
				// Lake housekeeping: merge small ingest containers, then
				// let GC retire history past the keep window — never past
				// a durable pin.
				if err := n.DM.LakeMaintenance(lake.DefaultCompactOptions(), lakeKeepHistory); err != nil {
					n.cfg.Logger.Printf("maintenance lake: %v", err)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// Close flushes databases and shuts down processing.
func (n *Node) Close() error {
	n.Frontend.Close()
	err := n.MetaDB.Close()
	if n.DomainDB != n.MetaDB {
		if derr := n.DomainDB.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// Checkpoint snapshots the databases.
func (n *Node) Checkpoint() error {
	if err := n.MetaDB.Checkpoint(); err != nil {
		return err
	}
	if n.DomainDB != n.MetaDB {
		return n.DomainDB.Checkpoint()
	}
	return nil
}

// LoadDay generates (or accepts) one synthetic mission day and ingests its
// units through the parallel loading pipeline. unitSeconds controls
// segmentation (0 = 4 units per day).
func (n *Node) LoadDay(dayNum int, tcfg telemetry.Config, unitSeconds float64) ([]*dm.LoadReport, error) {
	day := telemetry.GenerateDay(dayNum, tcfg)
	if unitSeconds <= 0 {
		unitSeconds = day.Length / 4
	}
	return n.DM.LoadUnits(telemetry.SegmentDay(day, unitSeconds), 0)
}

// Login authenticates a user for programmatic use of the node.
func (n *Node) Login(user, password string) (*dm.Session, error) {
	return n.DM.Authenticate(user, password, "127.0.0.1", dm.SessionANA)
}

// ImportSession logs in the system import account.
func (n *Node) ImportSession() (*dm.Session, error) {
	return n.Login(dm.ImportUser, n.cfg.ImportPassword)
}

// Analyze submits one analysis and waits for it, returning the committed
// analysis id — the programmatic equivalent of the web UI's execute form.
// A user's identical submission while the first is still running joins it
// and gets the same id: the §3.5 redundant-work check
// (FindExistingAnalysis) only sees committed analyses, and with staged
// data served from memory a quick request can come round again before a
// slow one (imaging) has committed.
func (n *Node) Analyze(sess *dm.Session, anaType, hleID string, params map[string]interface{}) (string, error) {
	if params == nil {
		params = map[string]interface{}{}
	}
	if _, ok := params["tstart"]; !ok {
		h, err := n.DM.GetHLE(sess, hleID)
		if err != nil {
			return "", err
		}
		params["tstart"], params["tstop"] = h.TStart, h.TStop
	}
	params["hle_id"] = hleID
	user := ""
	if sess != nil {
		user = sess.User
	}
	key := fmt.Sprint(user, "|", anaType, "|", params) // fmt prints a map in key order

	n.anaMu.Lock()
	if c, ok := n.analyzing[key]; ok {
		n.anaMu.Unlock()
		<-c.done
		return c.id, c.err
	}
	c := &analyzeCall{done: make(chan struct{})}
	if n.analyzing == nil {
		n.analyzing = make(map[string]*analyzeCall)
	}
	n.analyzing[key] = c
	n.anaMu.Unlock()
	defer func() {
		n.anaMu.Lock()
		delete(n.analyzing, key)
		n.anaMu.Unlock()
		close(c.done)
	}()

	ticket, err := n.Frontend.Submit(&pl.Request{
		Type: anaType, Session: sess, Params: params,
	})
	if err != nil {
		c.err = err
		return "", err
	}
	c.id, c.err = ticket.Wait(context.Background())
	return c.id, c.err
}
