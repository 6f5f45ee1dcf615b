package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/web"
)

// The cell deployment: real HTTP over loopback -> web.Server ->
// cluster.Gateway -> 2 replicas (reached through dm.Remote, the HTTP/JSON
// redirect) -> one shard.Router per replica -> dbnet clients -> 2 dbnet
// servers -> 2 on-disk minidb shards. It is the wiring of
// `hedc-server -mode db|replica|gateway` and cluster.StartShardCell, built
// from the same public constructors with every capacity model left at its
// zero value, so what is measured is this code on this host.

const (
	cellShards   = 2
	cellReplicas = 2
	sciUser      = "scientist"
	sciPassword  = "benchmark"
	sciIP        = "10.7.7.7"
)

var hleKinds = []string{"flare", "gamma-ray-burst", "quiet-period"}

var catalogIDs = []string{dm.StandardCat, dm.ExtendedCat}

// cellSize is how much the cell is seeded with.
type cellSize struct {
	hles, days       int
	stdCat, extCat   int // catalog memberships
	anaEvery, anaMax int // 1..anaMax ANA rows on every anaEvery-th event
}

var fullCell = cellSize{hles: 20000, days: 400, stdCat: 50, extCat: 150, anaEvery: 4, anaMax: 3}

// seedData is what the seeding put in, kept to check every answer.
type seedData struct {
	size     cellSize
	ids      []string
	kind     []uint8
	day      []int16
	anas     []uint8
	perDay   []int    // public events per day
	perKind  [3]int   // public events per kind
	perKD    [][3]int // per day, per kind
	catSizes [2]int
}

type cell struct {
	dir     string
	dbs     []*minidb.DB
	srvs    []*dbnet.Server
	routers []*shard.Router
	reps    []*cluster.Replica
	gw      *cluster.Gateway
	web     *web.Server
	srv     *http.Server
	url     string
	data    *seedData
}

// startCell builds and seeds a cell under dir. With a recorder the timing
// decorators are interposed at every interface the harness wires.
func startCell(dir string, seed int64, size cellSize, rec *recorder) (c *cell, err error) {
	c = &cell{dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	quiet := log.New(io.Discard, "", 0)
	wrapE := func(e minidb.Engine, name string, shardID int) minidb.Engine {
		if rec == nil {
			return e
		}
		return wrapEngine(e, rec, name, shardID)
	}
	wrapA := func(a dm.API, name string) dm.API {
		if rec == nil {
			return a
		}
		// The replica-side reads are kept for the in-process replay.
		return &tracedAPI{in: a, r: rec, name: name, keep: name == "dm.remote"}
	}

	boot := make(map[int]minidb.Engine, cellShards)
	var addrs []string
	for i := 0; i < cellShards; i++ {
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		db, err := minidb.Open(sdir, schema.AllSchemas()...)
		if err != nil {
			return nil, err
		}
		c.dbs = append(c.dbs, db)
		boot[i] = db
		srv, err := dbnet.Listen("127.0.0.1:0", dbnet.Options{DB: wrapE(db, "minidb.op", i), Logger: quiet})
		if err != nil {
			return nil, err
		}
		c.srvs = append(c.srvs, srv)
		addrs = append(addrs, srv.Addr())
	}

	// Seed through a boot router straight over the shard databases, the
	// way a loader would before the cell opens for traffic.
	bootRouter, err := shard.NewRouter(shard.Options{Shards: boot, Logger: quiet})
	if err != nil {
		return nil, err
	}
	if c.data, err = seedCell(bootRouter, seed, size, quiet); err != nil {
		return nil, fmt.Errorf("seed cell: %w", err)
	}

	c.gw = cluster.NewGateway(cluster.GatewayOptions{Logger: quiet})
	for r := 0; r < cellReplicas; r++ {
		engines := make(map[int]minidb.Engine, cellShards)
		for sid, addr := range addrs {
			cl, err := dbnet.Dial(dbnet.ClientOptions{Addr: addr})
			if err != nil {
				for _, e := range engines {
					e.Close()
				}
				return nil, err
			}
			engines[sid] = wrapE(cl, "dbnet.call", sid)
		}
		router, err := shard.NewRouter(shard.Options{Shards: engines, Logger: quiet})
		if err != nil {
			for _, e := range engines {
				e.Close()
			}
			return nil, err
		}
		c.routers = append(c.routers, router)
		rep, err := cluster.StartReplica(cluster.ReplicaOptions{
			Name: fmt.Sprintf("replica-%d", r), DB: wrapE(router, "shard.op", -1), Logger: quiet,
		})
		if err != nil {
			return nil, err
		}
		c.reps = append(c.reps, rep)
		c.gw.AddReplica(rep.Name(), wrapA(dm.NewRemote(rep.URL(), nil), "dm.remote"))
	}

	api := wrapA(c.gw, "cluster.call")
	c.web = web.New(web.Config{API: api, Cluster: c.gw, Node: "gateway"})
	pages := c.web.Handler()
	if rec != nil {
		pages = tracedHandler(rec, "web.page", pages)
	}
	mux := dm.NewServer(api, "/dm/").Mux()
	mux.Handle("/", pages)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: mux, ErrorLog: quiet}
	go c.srv.Serve(ln)
	c.url = "http://" + ln.Addr().String()
	return c, nil
}

// close tears the cell down front to back and removes its files.
func (c *cell) close() {
	if c.srv != nil {
		c.srv.Close()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, r := range c.reps {
		r.Stop()
	}
	for _, rt := range c.routers {
		rt.Close() // closes the dbnet clients under it
	}
	for _, s := range c.srvs {
		s.Close()
	}
	for _, db := range c.dbs {
		db.Close()
	}
	os.RemoveAll(c.dir)
}

// dbOps is the capacity-counted operations the shard servers have served.
func (c *cell) dbOps() int64 {
	var n int64
	for _, s := range c.srvs {
		n += s.Ops()
	}
	return n
}

// seedCell bootstraps accounts and catalogs and inserts the public events,
// their analyses and the catalog memberships.
func seedCell(eng minidb.Engine, seed int64, size cellSize, quiet *log.Logger) (*seedData, error) {
	d, err := dm.Open(dm.Options{Node: "boot", MetaDB: eng, Logger: quiet})
	if err != nil {
		return nil, err
	}
	if err := d.Bootstrap("import"); err != nil {
		return nil, err
	}
	if err := d.CreateUser(sciUser, sciPassword, dm.GroupScientist,
		dm.RightBrowse, dm.RightDownload, dm.RightAnalyze, dm.RightUpload); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	sd := &seedData{
		size: size,
		ids:  make([]string, size.hles), kind: make([]uint8, size.hles),
		day: make([]int16, size.hles), anas: make([]uint8, size.hles),
		perDay: make([]int, size.days), perKD: make([][3]int, size.days),
	}
	const chunk = 2000
	now := float64(time.Now().Unix())
	batch := &minidb.Batch{}
	flush := func() error {
		if batch.Len() == 0 {
			return nil
		}
		_, err := eng.Apply(batch)
		batch = &minidb.Batch{}
		return err
	}
	anaSeq, memSeq := 0, int64(1_000_000)
	for i := 0; i < size.hles; i++ {
		// Ids are in their own namespace so that CreateHLE's sequence
		// ("hle-00000000" upwards) never collides with a seeded one.
		id := fmt.Sprintf("hle-b%07d", i)
		k := uint8(rng.Intn(len(hleKinds)))
		day := rng.Intn(size.days)
		start := float64(day)*86400 + rng.Float64()*86000
		sd.ids[i], sd.kind[i], sd.day[i] = id, k, int16(day)
		sd.perDay[day]++
		sd.perKind[k]++
		sd.perKD[day][k]++
		h := &schema.HLE{
			ID: id, Version: 1, Owner: dm.ImportUser, Public: true,
			Label:    fmt.Sprintf("seeded %s day %d", hleKinds[k], day),
			KindHint: hleKinds[k], TStart: start, TStop: start + 30 + rng.Float64()*600,
			EMin: 3, EMax: 300, PeakRate: 50 + rng.Float64()*900,
			TotalCounts: int64(1000 + rng.Intn(90000)), Background: 20,
			Significance: 3 + rng.Float64()*40, UnitID: fmt.Sprintf("hsi_%04d_000", day),
			Day: int64(day), Quality: 3, Origin: "auto", CalibVersion: 1,
			Created: now, Modified: now,
		}
		batch.Insert(schema.TableHLE, h.ToRow())
		if i%size.anaEvery == 0 {
			n := 1 + rng.Intn(size.anaMax)
			sd.anas[i] = uint8(n)
			for j := 0; j < n; j++ {
				a := &schema.ANA{
					ID: fmt.Sprintf("ana-b%07d", anaSeq), HLEID: id,
					Type: schema.AnaLightcurve, Algorithm: "time-binning", Version: 1,
					Owner: dm.ImportUser, Public: true, Status: schema.AnaCommitted,
					TStart: h.TStart, TStop: h.TStop, TimeBins: 128, ApproxFrac: 1,
					NPhotons: h.TotalCounts, PeakValue: h.PeakRate,
					ItemID:       fmt.Sprintf("item-b%07d", anaSeq),
					CalibVersion: 1, Created: now,
				}
				anaSeq++
				batch.Insert(schema.TableANA, a.ToRow())
			}
		}
		for ci, want := range []int{size.stdCat, size.extCat} {
			if sd.catSizes[ci] < want && i%(ci+2) == 0 {
				sd.catSizes[ci]++
				memSeq++
				batch.Insert(schema.TableCatalogMembers, minidb.Row{
					minidb.I(memSeq), minidb.S(catalogIDs[ci]), minidb.S(id),
					minidb.S(dm.ImportUser), minidb.F(now),
				})
			}
		}
		if (i+1)%chunk == 0 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return sd, nil
}

// ---- the request script -------------------------------------------------

type opKind uint8

const (
	opHLE opKind = iota
	opBrowseDay
	opCatalog
	opBrowseKind
	opIndex
	opWrite
)

// scriptOp is one scripted operation; a and b select the event, kind, day
// or catalog.
type scriptOp struct {
	kind opKind
	a, b int
}

// pageMix is the anonymous page mix of the paper's Fig. 5 request anatomy,
// in twentieths: 40 % event page, 30 % kind+day browse, 15 % catalog, 10 %
// kind browse of 100 rows, 5 % index.
var pageMix = []opKind{
	opHLE, opHLE, opHLE, opHLE, opHLE, opHLE, opHLE, opHLE,
	opBrowseDay, opBrowseDay, opBrowseDay, opBrowseDay, opBrowseDay, opBrowseDay,
	opCatalog, opCatalog, opCatalog,
	opBrowseKind, opBrowseKind,
	opIndex,
}

// genScript draws n operations. Every block of 20 holds the page mix
// exactly, in an order shuffled by the seed, so that no stretch of the
// script is heavier than another by the luck of the draw; with writeShare
// set, one operation of the block becomes a CreateHLE (5 %). Which event,
// kind, day and catalog each page asks for is drawn from the seed; event
// ids are Zipf-popular: a few events draw most visits.
func genScript(rng *rand.Rand, n int, sd *seedData, writeShare float64) []scriptOp {
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(sd.ids)-1))
	ops := make([]scriptOp, 0, n+len(pageMix))
	block := make([]opKind, len(pageMix))
	for len(ops) < n {
		copy(block, pageMix)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i, kind := range block {
			if float64(i) < writeShare*float64(len(block)) {
				kind = opWrite
			}
			op := scriptOp{kind: kind}
			switch kind {
			case opHLE:
				op.a = int(zipf.Uint64())
			case opBrowseDay, opWrite:
				op.a, op.b = rng.Intn(len(hleKinds)), rng.Intn(sd.size.days)
			case opCatalog:
				op.a = rng.Intn(len(catalogIDs))
			case opBrowseKind:
				op.a = rng.Intn(len(hleKinds))
			}
			ops = append(ops, op)
		}
	}
	return ops[:n]
}

// cellClient is one keep-alive connection's worth of client state.
type cellClient struct {
	c      *cell
	http   *http.Client
	remote *dm.Remote // the /dm/ RPC of the gateway, for writes
	token  string
	churn  bool // counts may grow: check >= instead of ==
	buf    bytes.Buffer
	acked  []string
}

// newClients makes n clients that share one connection pool of n
// keep-alive connections, and logs the scientist in when writes are due.
func newClients(c *cell, n int, writes bool) ([]*cellClient, error) {
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns: n, MaxIdleConnsPerHost: n, MaxConnsPerHost: n,
			IdleConnTimeout: time.Minute,
		},
	}
	remote := &dm.Remote{BaseURL: c.url + "/dm/", Client: hc}
	token := ""
	if writes {
		info, err := remote.Authenticate(sciUser, sciPassword, sciIP, dm.SessionHLE)
		if err != nil {
			return nil, fmt.Errorf("scientist login: %w", err)
		}
		token = info.Token
	}
	out := make([]*cellClient, n)
	for i := range out {
		out[i] = &cellClient{c: c, http: hc, remote: remote, token: token, churn: writes}
	}
	return out, nil
}

// do runs one scripted operation and checks its answer. The error says
// what was wrong: transport, status, a typed refusal, or a wrong page.
func (cl *cellClient) do(op scriptOp) error {
	sd := cl.c.data
	switch op.kind {
	case opWrite:
		start := float64(op.b)*86400 + 43200
		id, err := cl.remote.CreateHLE(cl.token, sciIP, &schema.HLE{
			Version: 1, Label: "churn", KindHint: hleKinds[op.a],
			TStart: start, TStop: start + 60, EMin: 3, EMax: 300,
			PeakRate: 100, Day: int64(op.b), Quality: 3, CalibVersion: 1,
		})
		if err != nil {
			return err
		}
		if id == "" {
			return fmt.Errorf("CreateHLE acknowledged without an id")
		}
		cl.acked = append(cl.acked, id)
		return nil
	case opHLE:
		id := sd.ids[op.a]
		body, err := cl.get("/hle?id=" + id)
		if err != nil {
			return err
		}
		if !bytes.Contains(body, []byte("Event "+id)) {
			return fmt.Errorf("/hle?id=%s: event id missing from the page", id)
		}
		if err := cl.checkCount(body, " analyses on record", int(sd.anas[op.a]), false); err != nil {
			return err
		}
		return cl.checkCount(body, " events from the same unit", sd.perDay[sd.day[op.a]], cl.churn)
	case opBrowseDay:
		body, err := cl.get("/browse?kind=" + hleKinds[op.a] + "&day=" + strconv.Itoa(op.b))
		if err != nil {
			return err
		}
		return cl.checkCount(body, " matching events", sd.perKD[op.b][op.a], cl.churn)
	case opBrowseKind:
		body, err := cl.get("/browse?kind=" + hleKinds[op.a])
		if err != nil {
			return err
		}
		return cl.checkCount(body, " matching events", sd.perKind[op.a], cl.churn)
	case opCatalog:
		body, err := cl.get("/catalog?id=" + catalogIDs[op.a])
		if err != nil {
			return err
		}
		want := sd.catSizes[op.a]
		if want > 50 { // the page shows up to 50 and counts what it shows
			want = 50
		}
		return cl.checkCount(body, " events in this catalog", want, false)
	case opIndex:
		body, err := cl.get("/")
		if err != nil {
			return err
		}
		for ci, id := range catalogIDs {
			if !bytes.Contains(body, []byte("/catalog?id="+id)) ||
				!bytes.Contains(body, []byte("<td>"+strconv.Itoa(sd.catSizes[ci])+"</td>")) {
				return fmt.Errorf("/: catalog %s or its member count missing", id)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.kind)
}

// get fetches one page into the client's buffer; anything but 200 fails.
func (cl *cellClient) get(path string) ([]byte, error) {
	resp, err := cl.http.Get(cl.c.url + path)
	if err != nil {
		return nil, err
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: http %d", path, resp.StatusCode)
	}
	return cl.buf.Bytes(), nil
}

// checkCount finds the integer printed right before marker and compares it
// with the seeded count (at least the seeded count when it may grow).
func (cl *cellClient) checkCount(body []byte, marker string, want int, mayGrow bool) error {
	at := bytes.Index(body, []byte(marker))
	if at < 0 {
		return fmt.Errorf("page lacks %q", marker)
	}
	lo := at
	for lo > 0 && body[lo-1] >= '0' && body[lo-1] <= '9' {
		lo--
	}
	got, err := strconv.Atoi(string(body[lo:at]))
	if err != nil {
		return fmt.Errorf("no count before %q", marker)
	}
	if got == want || mayGrow && got > want {
		return nil
	}
	return fmt.Errorf("count before %q is %d, seeded %d", marker, got, want)
}

// verifyWrites is the churn_cell end gate: every acknowledged CreateHLE is
// readable through the gateway, and the scientist sees seed + acks events.
func verifyWrites(clients []*cellClient) (checked, failed int) {
	if len(clients) == 0 || clients[0].token == "" {
		return 0, 0
	}
	first := clients[0]
	acks := 0
	for _, cl := range clients {
		for _, id := range cl.acked {
			acks++
			checked++
			h, err := first.remote.GetHLE(first.token, sciIP, id)
			if err != nil || h.ID != id || h.Owner != sciUser {
				failed++
			}
		}
	}
	checked++
	n, err := first.remote.CountHLEs(first.token, sciIP, dm.HLEFilter{})
	if err != nil || n != first.c.data.size.hles+acks {
		failed++
	}
	return checked, failed
}
