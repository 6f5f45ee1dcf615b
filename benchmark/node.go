package main

import (
	"bytes"
	"fmt"
	"image/gif"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	hedc "repro"
	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/colseg"
	"repro/internal/dm"
	"repro/internal/fits"
	"repro/internal/lake"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wavelet"
)

// The node deployment is hedc.Open: on-disk minidb + WAL, the disk-0 lake
// archive, the colseg store, the processing farm with 2 interpreters.
// Concrete-typed layers cannot be decorated from outside, so the traced
// runs measure them by layer replay — the harness calls the layer's public
// functions on the inputs the run used — and by reading the layers' public
// Stats()/Status() around the run.

const (
	missionDayLength   = 14400 // seconds of observation per generated day
	unitSeconds        = 600   // 24 units per day
	ingestBatchPhotons = 250_000
)

func missionConfig(seed int64) telemetry.Config {
	return telemetry.Config{Seed: seed, DayLength: missionDayLength, Flares: 6, Bursts: 1}
}

// genDays generates n mission days from the seed and cuts them into
// units. It returns the median time one day took, so that the set-up
// figure does not hang on one disturbed second.
func genDays(seed int64, n int) (units []*telemetry.Unit, photons int, perDay time.Duration) {
	var times []float64
	for d := 1; d <= n; d++ {
		t0 := time.Now()
		day := telemetry.GenerateDay(d, missionConfig(seed))
		units = append(units, telemetry.SegmentDay(day, unitSeconds)...)
		times = append(times, float64(time.Since(t0)))
		photons += len(day.Photons)
	}
	return units, photons, time.Duration(median(times))
}

// batchUnits groups consecutive units into LoadUnits batches of about
// ingestBatchPhotons photons each: the operation of ingest_node.
func batchUnits(units []*telemetry.Unit) [][]*telemetry.Unit {
	var out [][]*telemetry.Unit
	var cur []*telemetry.Unit
	n := 0
	for _, u := range units {
		cur = append(cur, u)
		n += len(u.Photons)
		if n >= ingestBatchPhotons {
			out = append(out, cur)
			cur, n = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

func photonsOf(units []*telemetry.Unit) int {
	n := 0
	for _, u := range units {
		n += len(u.Photons)
	}
	return n
}

func nodeDir(cfg runConfig, name string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("work-%d-%s", os.Getpid(), name))
}

// ---- ingest_node ----------------------------------------------------------

// runIngest loads the generated days into fresh repositories, round after
// round, until the measured seconds are over. Each round: open, one
// LoadUnits call per batch (timed), checkpoint, measure the directory,
// close, reopen from disk and read every unit's raw item back.
func runIngest(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	days := 4
	if cfg.mini {
		days = 1
	}
	units, photons, perDay := genDays(cfg.seed, days)
	batches := batchUnits(units)

	var opens []float64
	for i := 0; i < 3; i++ {
		dir := nodeDir(cfg, fmt.Sprintf("open%d", i))
		t0 := time.Now()
		repo, err := hedc.Open(hedc.Config{DataDir: dir})
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		repo.Close()
		os.RemoveAll(dir)
	}
	out.set("setup_s", float64(days)*perDay.Seconds()+median(opens), int64(days))

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2 // leave room for the serial round and the layer replays
	}
	rss := startRSSSampler()
	lat := &batchLatency{start: time.Now(), win: newWindowHist(measure, 2*time.Second)}
	var rates, cpus, diskRatios []float64
	var last *ingestRound
	for round := 0; round < 3 || time.Since(lat.start) < measure; round++ {
		if cfg.mini && round >= 1 {
			break
		}
		r, err := ingestOnce(cfg, out, batches, 0, lat)
		if err != nil {
			return nil, err
		}
		rates = append(rates, float64(photons)/ingestBatchPhotons/r.loadWall.Seconds())
		cpus = append(cpus, ms(r.loadCPU)/(float64(photons)/ingestBatchPhotons))
		diskRatios = append(diskRatios, float64(r.diskBytes)/float64(r.rawBytes))
		last = r
	}
	out.set("op_p50_ms", ms(lat.win.quantile(0.50)), lat.win.total().count())
	out.set("op_p95_ms", ms(lat.win.quantileOver(0.95, 3)), lat.win.total().count())
	out.set("ops_per_s", quartile(rates, 3), int64(len(rates)))
	out.set("cpu_ms_per_op", quartile(cpus, 1), int64(len(cpus)))
	out.set("ingest_photons_per_s", quartile(rates, 3)*ingestBatchPhotons, int64(len(rates)))
	out.set("disk_bytes_per_raw_byte", median(diskRatios), int64(len(diskRatios)))

	if cfg.trace {
		if err := traceIngest(cfg, out, units, batches, last); err != nil {
			return nil, err
		}
	}
	setRSS(out, rss)
	return out, nil
}

// ingestRound is what one round into a fresh repository measured.
type ingestRound struct {
	loadWall, loadCPU time.Duration
	diskBytes         int64
	rawBytes          int64
	dbBytes, lakeDisk int64
	lake              lake.Status
	db                minidb.StatsSnapshot
	alloc             float64
}

// batchLatency files batch latencies by the time they were measured at.
type batchLatency struct {
	start time.Time
	win   *windowHist
}

// ingestOnce runs one round. workers is LoadUnits' worker count (0 = the
// pipeline's default, 1 = serial). Latencies are recorded per batch,
// scaled to a batch of exactly ingestBatchPhotons photons.
func ingestOnce(cfg runConfig, out *outcome, batches [][]*telemetry.Unit, workers int, lat *batchLatency) (*ingestRound, error) {
	dir := nodeDir(cfg, "ingest")
	defer os.RemoveAll(dir)
	repo, err := hedc.Open(hedc.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	r := &ingestRound{}
	var reports []*hedc.LoadReport
	p0 := readProc()
	for _, b := range batches {
		t0 := time.Now()
		reps, err := repo.Node().DM.LoadUnits(b, workers)
		d := time.Since(t0)
		out.attempted += int64(len(b))
		if err != nil {
			out.fail(int64(len(b)), "LoadUnits: %v", err)
			repo.Close()
			return nil, err
		}
		r.loadWall += d
		if lat != nil {
			lat.win.record(time.Since(lat.start), time.Duration(float64(d)*ingestBatchPhotons/float64(max(photonsOf(b), 1))))
		}
		reports = append(reports, reps...)
	}
	p1 := readProc()
	r.loadCPU, r.alloc = p1.cpu-p0.cpu, p1.allocKB-p0.allocKB
	if err := repo.Checkpoint(); err != nil {
		repo.Close()
		return nil, err
	}
	r.diskBytes = dirBytes(dir)
	r.dbBytes = dirBytes(filepath.Join(dir, "db"))
	r.lakeDisk = dirBytes(filepath.Join(dir, "archive"))
	r.db = repo.Node().MetaDB.Stats()
	if lk := repo.Node().DM.DefaultArchive().Lake(); lk != nil {
		r.lake = lk.Status()
	}
	for _, rep := range reports {
		r.rawBytes += rep.RawBytes
	}
	if err := repo.Close(); err != nil {
		return nil, err
	}

	// Gate: reopened from disk, every unit's raw item reads back whole.
	repo, err = hedc.Open(hedc.Config{DataDir: dir})
	if err != nil {
		return nil, err
	}
	defer repo.Close()
	sess, err := repo.ImportSession()
	if err != nil {
		return nil, err
	}
	for _, rep := range reports {
		out.attempted++
		data, err := repo.ReadItem(sess, rep.ItemID)
		if err != nil || int64(len(data)) != rep.RawBytes {
			out.fail(1, "unit %s after reopen: %d bytes, stored %d (%v)", rep.UnitID, len(data), rep.RawBytes, err)
		}
	}
	return r, nil
}

// traceIngest adds the per-layer figures of ingest_node: a serial round
// for the pipeline speed-up, and replays of the codecs and the lake on the
// run's own units.
func traceIngest(cfg runConfig, out *outcome, units []*telemetry.Unit, batches [][]*telemetry.Unit, pipelined *ingestRound) error {
	serial, err := ingestOnce(cfg, out, batches, 1, nil)
	if err != nil {
		return err
	}
	nu := float64(len(units))
	out.set("dm.pipeline_speedup", ratio(serial.loadWall.Seconds(), pipelined.loadWall.Seconds()), int64(len(units)))

	var packT, viewT, detT time.Duration
	files := make([][]archive.BatchFile, len(units))
	for i, u := range units {
		t0 := time.Now()
		raw, err := u.PackGz()
		if err != nil {
			return err
		}
		t1 := time.Now()
		views := wavelet.PartitionViews(u.Photons, u.TStart, u.TStop, telemetry.EnergyMin, telemetry.EnergyMax,
			dm.ViewPartitions, dm.ViewTimeBins, dm.ViewEnergyBins, dm.ViewKeep)
		t2 := time.Now()
		analysis.DetectEvents(u.Photons, u.TStart, u.TStop, analysis.DetectConfig{})
		t3 := time.Now()
		packT, viewT, detT = packT+t1.Sub(t0), viewT+t2.Sub(t1), detT+t3.Sub(t2)
		files[i] = append(files[i], archive.BatchFile{Rel: "fits.gz/" + u.Name() + ".fits.gz", Day: int64(u.Day), Data: raw})
		for j, v := range views {
			files[i] = append(files[i], archive.BatchFile{
				Rel: fmt.Sprintf("wavelet/%s-v%02d.wav", u.Name(), j), Day: int64(u.Day), Data: v.Enc.Bytes()})
		}
	}
	out.set("telemetry.packgz_ms_per_unit", ms(packT)/nu, int64(len(units)))
	out.set("wavelet.views_ms_per_unit", ms(viewT)/nu, int64(len(units)))
	out.set("analysis.detect_ms_per_unit", ms(detT)/nu, int64(len(units)))

	// The lake alone: the same file groups, one StoreBatch per unit.
	ldir := nodeDir(cfg, "lake")
	defer os.RemoveAll(ldir)
	arch, err := archive.NewLake("disk-0", archive.Disk, ldir, 0)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, fs := range files {
		if err := arch.StoreBatch(fs); err != nil {
			return err
		}
	}
	storeT := time.Since(t0)
	items := 0
	t0 = time.Now()
	for _, fs := range files {
		for _, f := range fs {
			items++
			data, err := arch.Read(f.Rel)
			out.attempted++
			if err != nil || len(data) != len(f.Data) {
				out.fail(1, "lake replay: %s reads %d bytes, stored %d (%v)", f.Rel, len(data), len(f.Data), err)
			}
		}
	}
	readT := time.Since(t0)
	out.set("lake.store_ms_per_unit", ms(storeT)/nu, int64(len(units)))
	out.set("lake.read_us_per_item", us(readT)/float64(max(items, 1)), int64(items))

	// What LoadUnits costs beyond the codecs it calls, one derive worker:
	// the DM's own bookkeeping plus whatever of the store stage (lake
	// commit, minidb group commit) it did not overlap with deriving.
	out.set("dm.ingest_self_ms_per_unit", (ms(serial.loadWall)-ms(packT+viewT+detT))/nu, int64(len(units)))

	setLakeStatus(out, pipelined.lake, pipelined.lakeDisk)
	setMinidbStats(out, pipelined.db, pipelined.dbBytes)
	out.set("proc.alloc_kb_per_op", pipelined.alloc/float64(len(batches)), int64(len(batches)))
	return nil
}

// setLakeStatus reports the lake's own status of a node run.
func setLakeStatus(out *outcome, st lake.Status, diskBytes int64) {
	out.set("lake.commits", float64(st.Commits), 1)
	out.set("lake.containers_live", float64(st.ContainersLive), 1)
	out.set("lake.journal_bytes", float64(st.JournalBytes), 1)
	out.set("lake.phys_bytes_per_live_byte", ratio(float64(st.PhysBytes), float64(st.LiveBytes)), 1)
	out.set("lake.disk_bytes", float64(diskBytes), 1)
}

// setMinidbStats reports the engine's own counters of a node run.
func setMinidbStats(out *outcome, st minidb.StatsSnapshot, diskBytes int64) {
	out.set("minidb.rows_scanned_per_query", ratio(float64(st.RowsScanned), float64(st.Queries)), st.Queries)
	out.set("minidb.full_scans", float64(st.FullScans), st.Queries)
	out.set("minidb.txns_per_group_commit", ratio(float64(st.GroupedTxns), float64(st.GroupCommits)), st.GroupCommits)
	out.set("minidb.disk_bytes", float64(diskBytes), 1)
}

// ---- analyze_node ---------------------------------------------------------

type anaKind uint8

const (
	anaLightcurve anaKind = iota
	anaSpectrogram
	anaHistogram
	anaImaging
	anaAggregate
)

var anaTypes = [...]string{hedc.Lightcurve, hedc.Spectrogram, hedc.Histogram, hedc.Imaging}

// anaMix is the request mix in twentieths: 40 % lightcurve, 20 %
// spectrogram, 15 % histogram, 10 % imaging, 15 % catalog-wide aggregates.
var anaMix = []anaKind{
	anaLightcurve, anaLightcurve, anaLightcurve, anaLightcurve,
	anaLightcurve, anaLightcurve, anaLightcurve, anaLightcurve,
	anaSpectrogram, anaSpectrogram, anaSpectrogram, anaSpectrogram,
	anaHistogram, anaHistogram, anaHistogram,
	anaImaging, anaImaging,
	anaAggregate, anaAggregate, anaAggregate,
}

// anaRequest is one scripted request of analyze_node.
type anaRequest struct {
	kind     anaKind
	hle      int     // index into the node's events
	t0, t1   float64 // analysis window
	bins     int     // time_bins / energy_bins / image_size
	repeatOf int     // index of the earlier request this one repeats, or -1
	user     int     // which scientist asks
	agg      colseg.Query
}

// anaScript generates requests on demand, in order. Every block of 20 holds
// the mix exactly, shuffled by the seed. Three in ten analysis requests
// repeat an earlier one exactly: by the same scientist (the §3.5
// redundant-work check finds the committed analysis) or by the other one
// (who cannot see it, so the processing farm's memo answers).
type anaScript struct {
	mu     sync.Mutex
	rng    *rand.Rand
	events []*hedc.Event
	tmax   float64
	reqs   []anaRequest
	aggs   map[string]int
	// First-time analyses walk a fixed pool of windows spread evenly over
	// the mission day, each kind in its own seed-shuffled order, a little
	// later on every lap so that no request recurs by accident. Every seed
	// therefore asks for the same work in a different order: what an
	// analysis costs depends on how many photons the raw units under its
	// window hold, and flare sizes are heavy-tailed.
	order [4][]int
	next  [4]int
}

const anaPoolWindows = 48

// get returns request i, drawing the script as far as needed. Requests are
// drawn strictly in order, so the script is the same however far a run gets.
func (s *anaScript) get(i int) anaRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	block := make([]anaKind, len(anaMix))
	for len(s.reqs) <= i {
		copy(block, anaMix)
		s.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			s.reqs = append(s.reqs, s.draw(k))
		}
	}
	return s.reqs[i]
}

func (s *anaScript) draw(k anaKind) anaRequest {
	i := len(s.reqs)
	if k == anaAggregate {
		// Script-varied time windows over the events table; a quarter of
		// the windows recur, which the DM's analytics cache serves.
		lo := math.Floor(s.rng.Float64()*16) / 16 * s.tmax
		w := s.tmax / float64(int(2)<<s.rng.Intn(4))
		q := colseg.Query{Table: schema.TableEvents, Agg: colseg.AggStats, Col: "energy",
			Where: []minidb.Pred{{Col: "t", Op: minidb.OpBetween, Val: minidb.F(lo), Hi: minidb.F(lo + w)}}}
		switch s.rng.Intn(3) {
		case 1:
			q.GroupBy = "detector"
		case 2:
			q.Agg, q.Bins, q.Lo, q.Hi = colseg.AggHist, 32, 0, 512
		}
		r := anaRequest{kind: k, repeatOf: -1, agg: q}
		fp := colseg.Fingerprint(q)
		if first, seen := s.aggs[fp]; seen {
			r.repeatOf = first
		} else {
			s.aggs[fp] = i
		}
		return r
	}
	// Repeat an earlier analysis of this kind that has long completed.
	if s.rng.Intn(10) < 3 {
		var earlier []int
		for j := 0; j < i-8; j++ {
			if s.reqs[j].kind == k && s.reqs[j].repeatOf < 0 {
				earlier = append(earlier, j)
			}
		}
		if len(earlier) > 0 {
			j := earlier[s.rng.Intn(len(earlier))]
			r := s.reqs[j]
			r.repeatOf = j
			r.user = (s.reqs[j].user + s.rng.Intn(2)) % 2
			return r
		}
	}
	if s.order[k] == nil {
		s.order[k] = s.rng.Perm(anaPoolWindows)
	}
	slot, lap := s.order[k][s.next[k]%anaPoolWindows], s.next[k]/anaPoolWindows
	s.next[k]++
	r := anaRequest{kind: k, hle: s.rng.Intn(len(s.events)), repeatOf: -1, user: s.rng.Intn(2)}
	width := 120.0
	r.bins = 64 << s.rng.Intn(2)
	if k == anaImaging {
		width, r.bins = 30, 32
	}
	r.t0 = 60 + float64(slot)*(missionDayLength-400)/anaPoolWindows + float64(lap)/4
	r.t1 = r.t0 + width
	return r
}

// kernelParams is the request as the analysis kernel takes it: bins is the
// one resolution the kind has.
func (r *anaRequest) kernelParams() analysis.Params {
	p := analysis.Params{Type: anaTypes[r.kind], TStart: r.t0, TStop: r.t1}
	switch r.kind {
	case anaLightcurve, anaSpectrogram:
		p.TimeBins = r.bins
	case anaHistogram:
		p.EnergyBins = r.bins
	case anaImaging:
		p.ImageSize = r.bins
	}
	return p
}

// params is the request as repo.Analyze takes it.
func (r *anaRequest) params() map[string]interface{} {
	p := r.kernelParams()
	return map[string]interface{}{"tstart": p.TStart, "tstop": p.TStop,
		"time_bins": p.TimeBins, "energy_bins": p.EnergyBins, "image_size": p.ImageSize}
}

// spec is the committed-analysis shape FindExistingAnalysis matches on.
func (r *anaRequest) spec(hleID string) *hedc.Analysis {
	p := r.kernelParams()
	return &hedc.Analysis{HLEID: hleID, Type: p.Type, TStart: p.TStart, TStop: p.TStop,
		TimeBins: int64(p.TimeBins), EnergyBins: int64(p.EnergyBins), ImageSize: int64(p.ImageSize),
		ApproxFrac: 1, CalibVersion: 1}
}

// analyzeNode is a node preloaded for analyze_node.
type analyzeNode struct {
	repo     *hedc.Repository
	dir      string
	sessions [2]*hedc.Session
	events   []*hedc.Event
	tmax     float64 // largest event time in the events table
	rows     int
	stopBeat func()
}

func (n *analyzeNode) close() {
	n.stopBeat()
	n.repo.Close()
	os.RemoveAll(n.dir)
}

const analyzeMissionSeed = 2003

// eventsRows is the size of the events table: 4 colseg segments.
const eventsRows = 4 * colseg.DefaultSegmentRows

// startAnalyzeNode opens a node, loads the generated days, fills the
// events table with quantized photon records and builds its segments.
func startAnalyzeNode(cfg runConfig, units []*telemetry.Unit, rows int) (*analyzeNode, error) {
	n := &analyzeNode{dir: nodeDir(cfg, "analyze"), rows: rows}
	repo, err := hedc.Open(hedc.Config{DataDir: n.dir})
	if err != nil {
		return nil, err
	}
	n.repo = repo
	// The production heartbeat keeps the interpreter manager listed as
	// alive in the processing directory for runs longer than a minute.
	n.stopBeat = repo.Node().StartMaintenance(time.Hour)
	ok := false
	defer func() {
		if !ok {
			n.close()
		}
	}()
	if _, err := repo.Node().DM.LoadUnits(units, 0); err != nil {
		return nil, err
	}
	// events: one row per photon of the stream, times made strictly
	// increasing across days, values quantized to eighths so that float
	// sums are exact whatever the order of addition.
	const chunk = 16384
	b := &minidb.Batch{}
	id := 0
fill:
	for {
		for _, u := range units {
			for _, p := range u.Photons {
				if id == rows {
					break fill
				}
				n.tmax = float64(id) / 8
				energy := minidb.F(math.Round(math.Min(p.Energy, 500)*8) / 8)
				if id%23 == 0 {
					energy = minidb.Null() // uncalibrated
				}
				b.Insert(schema.TableEvents, minidb.Row{
					minidb.I(int64(id)), minidb.S(u.Name()), minidb.F(n.tmax), energy,
					minidb.I(int64(p.Detector)), minidb.I(int64(p.Segment)),
				})
				id++
				if b.Len() == chunk {
					if _, err := repo.Node().DomainDB.Apply(b); err != nil {
						return nil, err
					}
					b = &minidb.Batch{}
				}
			}
		}
	}
	if b.Len() > 0 {
		if _, err := repo.Node().DomainDB.Apply(b); err != nil {
			return nil, err
		}
	}
	if err := repo.Node().Segments.RefreshAll(); err != nil {
		return nil, err
	}
	for i, user := range []string{"alice", "bob"} {
		if err := repo.CreateUser(user, "pw", hedc.GroupScientist,
			hedc.RightBrowse, hedc.RightDownload, hedc.RightAnalyze, hedc.RightUpload); err != nil {
			return nil, err
		}
		if n.sessions[i], err = repo.Login(user, "pw"); err != nil {
			return nil, err
		}
	}
	if n.events, err = repo.Events(n.sessions[0], hedc.Filter{}); err != nil {
		return nil, err
	}
	if len(n.events) == 0 {
		return nil, fmt.Errorf("the loaded days produced no events")
	}
	ok = true
	return n, nil
}

// anaStats is what the analyze_node requests measured.
type anaStats struct {
	mu                           sync.Mutex
	start                        time.Time
	first                        *windowHist // first-time, non-imaging analyses
	imaging, aggregate, memoHits hist
	all                          hist
	ids                          map[int]string // request index -> committed analysis id
	gifs                         map[int][]byte
	analyzeWall                  time.Duration // sum over Analyze calls that ran
}

// runAnalyze runs the scripted analysis and aggregate requests closed-loop
// with nproc users until the measured seconds are over.
func runAnalyze(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	days, rows := 4, eventsRows
	if cfg.mini {
		days, rows = 1, 3*4096
	}
	// The telemetry under analyze_node is one fixed mission; the seed
	// draws the requests (which event, window, resolution, who asks, what
	// repeats). Flare sizes are heavy-tailed, and with a mission per seed
	// the cost of "an analysis" moved more between seeds than any change
	// to the code would move it.
	units, _, perDay := genDays(analyzeMissionSeed, days)
	t0 := time.Now()
	node, err := startAnalyzeNode(cfg, units, rows)
	if err != nil {
		return nil, err
	}
	defer node.close()
	// Generation counts as days x the median day; the preload as it ran.
	out.set("setup_s", float64(days)*perDay.Seconds()+time.Since(t0).Seconds(), 1)

	script := &anaScript{rng: rand.New(rand.NewSource(cfg.seed*104729 + 7)), events: node.events,
		tmax: node.tmax, aggs: map[string]int{}}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure = measure * 6 / 10 // leave room for the layer replays
	}
	st := &anaStats{ids: map[int]string{}, gifs: map[int][]byte{},
		start: time.Now(), first: newWindowHist(measure, 3*time.Second)}

	rss := startRSSSampler()
	farm0 := node.repo.Node().Frontend.FarmStats()
	seg0 := node.repo.Node().Segments.Stats()
	dm0a, dm0h := node.repo.Node().DM.Stats().AnalyticsQueries.Load(), node.repo.Node().DM.Stats().AnalyticsCacheHits.Load()
	p0 := readProc()
	var done atomic.Int64
	limit := 0
	if cfg.mini {
		limit = 60
	}
	sampler := startRateSampler(2*time.Second, done.Load)
	started, wall := closedLoop(cfg.conns, measure, limit, func(_, i int) {
		if err := node.serve(script, i, st); err != nil {
			out.fail(1, "request %d: %v", i, err)
		}
		done.Add(1)
	})
	rate, cpuPerOp, _ := sampler.finish()
	p1 := readProc()
	out.attempted += int64(started)

	firsts := st.first.total().count()
	out.set("op_p50_ms", ms(st.first.quantile(0.50)), firsts)
	out.set("op_p95_ms", ms(st.first.quantile(0.95)), firsts)
	out.set("ops_per_s", rate, int64(started))
	out.set("cpu_ms_per_op", cpuPerOp, int64(started))
	out.set("analysis_p50_ms", ms(st.first.total().quantile(0.50)), firsts)
	out.set("imaging_p50_ms", ms(st.imaging.quantile(0.50)), st.imaging.count())
	out.set("aggregate_p50_ms", ms(st.aggregate.quantile(0.50)), st.aggregate.count())

	if cfg.trace {
		farm1 := node.repo.Node().Frontend.FarmStats()
		seg1 := node.repo.Node().Segments.Stats()
		dst := node.repo.Node().DM.Stats()
		var inv0, inv1 int64
		var busy0, busy1 float64
		servers := 0
		for _, m := range farm0.Managers {
			inv0, busy0 = inv0+m.Invocations, busy0+m.BusySeconds
		}
		for _, m := range farm1.Managers {
			inv1, busy1, servers = inv1+m.Invocations, busy1+m.BusySeconds, servers+m.Servers
		}
		ran := float64(max(farm1.Memo.Misses-farm0.Memo.Misses, 1))
		out.set("pl.self_ms_per_request", (ms(st.analyzeWall)-(busy1-busy0)*1000)/ran, int64(ran))
		lookups := float64(farm1.Memo.Hits - farm0.Memo.Hits + farm1.Memo.Misses - farm0.Memo.Misses)
		out.set("pl.memo_hit_ratio", ratio(float64(farm1.Memo.Hits-farm0.Memo.Hits), lookups), int64(lookups))
		out.set("pl.memo_hit_ms_p50", ms(st.memoHits.quantile(0.5)), st.memoHits.count())
		out.set("pl.steals", float64(farm1.Sched.Steals-farm0.Sched.Steals), 1)
		out.set("pl.hedges_launched", float64(farm1.Sched.HedgesLaunched-farm0.Sched.HedgesLaunched), 1)
		out.set("idl.invocations", float64(inv1-inv0), 1)
		out.set("idl.utilisation", ratio(busy1-busy0, wall.Seconds()*float64(servers)), inv1-inv0)
		aq := float64(dst.AnalyticsQueries.Load() - dm0a)
		out.set("dm.analytics_cache_hit_ratio", ratio(float64(dst.AnalyticsCacheHits.Load()-dm0h), aq), int64(aq))
		vq := float64(seg1.QueriesVec - seg0.QueriesVec + seg1.QueriesRow - seg0.QueriesRow)
		out.set("colseg.segs_pruned_ratio", ratio(float64(seg1.SegsPruned-seg0.SegsPruned),
			float64(seg1.SegsPruned-seg0.SegsPruned+seg1.SegsScanned-seg0.SegsScanned)), int64(vq))
		out.set("colseg.rows_vec_per_query", ratio(float64(seg1.RowsVec-seg0.RowsVec), vq), int64(vq))
		out.set("proc.alloc_kb_per_op", (p1.allocKB-p0.allocKB)/float64(max(started, 1)), int64(started))
		out.set("proc.gc_pause_ms_total", ms(p1.gcPause-p0.gcPause), int64(p1.gcCycles-p0.gcCycles))
		if err := node.replayLayers(cfg, out, script, started); err != nil {
			return nil, err
		}
	}
	setRSS(out, rss)
	return out, nil
}

// serve executes request i the way a client of the repository would and
// checks the answer.
func (n *analyzeNode) serve(script *anaScript, i int, st *anaStats) error {
	r := script.get(i)
	t0 := time.Now()
	if r.kind == anaAggregate {
		res, err := n.repo.Node().DM.Analytics(r.agg)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		st.mu.Lock()
		st.all.record(d)
		if r.repeatOf < 0 {
			st.aggregate.record(d)
		}
		st.mu.Unlock()
		if r.repeatOf < 0 {
			// Gate: the first answer to each aggregate is bit-identical
			// to the row-at-a-time reference.
			want, err := colseg.RunRows(n.repo.Node().DomainDB, r.agg)
			if err != nil {
				return err
			}
			if err := sameAggregate(res, want); err != nil {
				return fmt.Errorf("aggregate differs from colseg.RunRows: %w", err)
			}
		}
		return nil
	}

	sess := n.sessions[r.user]
	hleID := n.events[r.hle].ID
	// The §3.5 redundant-work check comes first, as in the web client.
	existing, err := n.repo.FindExistingAnalysis(sess, r.spec(hleID))
	if err != nil {
		return err
	}
	var id string
	ran := existing == nil
	var t1 time.Time
	if ran {
		t1 = time.Now()
		if id, err = n.repo.Analyze(sess, anaTypes[r.kind], hleID, r.params()); err != nil {
			return err
		}
	} else {
		id = existing.ID
	}
	ana, err := n.repo.GetAnalysis(sess, id)
	if err != nil {
		return err
	}
	img, err := n.repo.ReadItem(sess, ana.ItemID)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	if _, err := gif.DecodeConfig(bytes.NewReader(img)); err != nil {
		return fmt.Errorf("analysis %s: result is not a GIF: %w", id, err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	st.all.record(d)
	if ran {
		st.analyzeWall += time.Since(t1) - (time.Since(t0) - d)
	}
	if r.repeatOf < 0 {
		st.ids[i], st.gifs[i] = id, img
		if r.kind == anaImaging {
			st.imaging.record(d)
		} else {
			st.first.record(t0.Sub(st.start), d)
		}
		return nil
	}
	if script.get(r.repeatOf).user == r.user {
		// Gate: a scientist's repeat is answered with the analysis
		// already committed.
		if want, ok := st.ids[r.repeatOf]; ok && id != want {
			return fmt.Errorf("repeat of request %d returned analysis %s, first was %s", r.repeatOf, id, want)
		}
		return nil
	}
	// Another scientist cannot see the first result; the farm's memo
	// serves the same picture without running the kernel again.
	st.memoHits.record(d)
	if want, ok := st.gifs[r.repeatOf]; ok && !bytes.Equal(img, want) {
		return fmt.Errorf("repeat of request %d by another user produced a different picture", r.repeatOf)
	}
	return nil
}

// sameAggregate demands bit-identical aggregate results.
func sameAggregate(got, want *colseg.Result) error {
	if got.Rows != want.Rows || got.NonNull != want.NonNull {
		return fmt.Errorf("rows %d/%d vs %d/%d", got.Rows, got.NonNull, want.Rows, want.NonNull)
	}
	for _, v := range [][2]float64{{got.Sum, want.Sum}, {got.Min, want.Min}, {got.Max, want.Max}} {
		if got.NonNull > 0 && math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			return fmt.Errorf("aggregate %v vs %v", v[0], v[1])
		}
	}
	if len(got.Bins) != len(want.Bins) || len(got.Groups) != len(want.Groups) {
		return fmt.Errorf("%d bins, %d groups vs %d, %d", len(got.Bins), len(got.Groups), len(want.Bins), len(want.Groups))
	}
	for i := range got.Bins {
		if got.Bins[i] != want.Bins[i] {
			return fmt.Errorf("bin %d: %d vs %d", i, got.Bins[i], want.Bins[i])
		}
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g.Key != w.Key || g.Rows != w.Rows || g.NonNull != w.NonNull ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			return fmt.Errorf("group %d: %+v vs %+v", i, g, w)
		}
	}
	return nil
}

// replayLayers calls the layers under an analysis directly, on the inputs
// of the first requests the run served: the lake read and the gunzip+FITS
// decode of every raw unit, RawPhotons, each analysis kernel, and the
// colseg scan behind each aggregate.
func (n *analyzeNode) replayLayers(cfg runConfig, out *outcome, script *anaScript, served int) error {
	d := n.repo.Node().DM
	sess := n.sessions[0]
	infos, err := d.UnitsInRange(0, missionDayLength)
	if err != nil {
		return err
	}
	var readT, decodeT time.Duration
	for _, u := range infos {
		t0 := time.Now()
		data, err := n.repo.ReadItem(sess, u.ItemID)
		if err != nil {
			return err
		}
		t1 := time.Now()
		var f *fits.File
		err = telemetry.WithGzipReader(data, func(r io.Reader) error {
			var derr error
			f, derr = fits.Decode(r)
			return derr
		})
		if err == nil {
			_, err = telemetry.ParseUnit(f)
		}
		if err != nil {
			return err
		}
		readT, decodeT = readT+t1.Sub(t0), decodeT+time.Since(t1)
	}
	out.set("lake.read_us_per_item", us(readT)/float64(max(len(infos), 1)), int64(len(infos)))
	out.set("fits.decode_ms_per_unit", ms(decodeT)/float64(max(len(infos), 1)), int64(len(infos)))

	var rawT time.Duration
	rawN := 0
	kernel := map[anaKind]*hist{anaLightcurve: {}, anaSpectrogram: {}, anaHistogram: {}, anaImaging: {}}
	var scan hist
	budget := time.Now().Add(time.Duration(cfg.seconds * 0.3 * float64(time.Second)))
	for i := 0; i < served && time.Now().Before(budget); i++ {
		r := script.get(i)
		if r.repeatOf >= 0 {
			continue
		}
		if r.kind == anaAggregate {
			t0 := time.Now()
			if _, err := n.repo.Node().Segments.Run(r.agg); err != nil {
				return err
			}
			scan.record(time.Since(t0))
			continue
		}
		if kernel[r.kind].count() >= 12 {
			continue
		}
		t0 := time.Now()
		photons, _, err := d.RawPhotons(sess, r.t0, r.t1)
		if err != nil {
			return err
		}
		rawT += time.Since(t0)
		rawN++
		t0 = time.Now()
		if _, err := analysis.Run(r.kernelParams(), photons); err != nil {
			return err
		}
		kernel[r.kind].record(time.Since(t0))
	}
	out.set("dm.rawphotons_ms_per_call", ms(rawT)/float64(max(rawN, 1)), int64(rawN))
	out.set("analysis.lightcurve_ms_per_call", ms(kernel[anaLightcurve].mean()), kernel[anaLightcurve].count())
	out.set("analysis.spectrogram_ms_per_call", ms(kernel[anaSpectrogram].mean()), kernel[anaSpectrogram].count())
	out.set("analysis.histogram_ms_per_call", ms(kernel[anaHistogram].mean()), kernel[anaHistogram].count())
	out.set("analysis.imaging_ms_per_call", ms(kernel[anaImaging].mean()), kernel[anaImaging].count())
	out.set("colseg.scan_ms_per_query", ms(scan.mean()), scan.count())

	if lk := d.DefaultArchive().Lake(); lk != nil {
		setLakeStatus(out, lk.Status(), dirBytes(filepath.Join(n.dir, "archive")))
	}
	setMinidbStats(out, n.repo.Node().MetaDB.Stats(), dirBytes(filepath.Join(n.dir, "db")))
	return nil
}
