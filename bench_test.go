package hedc

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out and real-code-path microbenchmarks.
// `go test -bench=. -benchmem` regenerates everything; cmd/hedc-bench
// prints the same data as paper-style tables.

import (
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/bench"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
	"repro/internal/wavelet"
)

// --- Figure 4: browse throughput vs number of clients (single node) ---

func BenchmarkFigure4(b *testing.B) {
	p := bench.DefaultBrowseParams()
	var pts []bench.BrowsePoint
	for i := 0; i < b.N; i++ {
		pts = bench.Figure4(p, nil)
	}
	b.ReportMetric(pts[0].RequestsPerSec, "peak-req/s")
	b.ReportMetric(pts[len(pts)-1].RequestsPerSec, "96cl-req/s")
	b.ReportMetric(pts[0].DBQueriesPS, "peak-dbq/s")
}

// --- Figure 5: browse throughput vs number of middle-tier nodes ---

func BenchmarkFigure5(b *testing.B) {
	p := bench.DefaultBrowseParams()
	var pts []bench.BrowsePoint
	for i := 0; i < b.N; i++ {
		pts = bench.Figure5(p, nil)
	}
	b.ReportMetric(pts[0].RequestsPerSec, "1node-req/s")
	b.ReportMetric(pts[len(pts)-1].RequestsPerSec, "5node-req/s")
	b.ReportMetric(pts[len(pts)-1].DBQueriesPS, "5node-dbq/s")
}

// --- Table 1: processing performance (imaging and histogram series) ---

func BenchmarkTable1Imaging(b *testing.B) {
	p := bench.DefaultProcessingParams()
	var pts []bench.ProcPoint
	for i := 0; i < b.N; i++ {
		pts = bench.Table1(p, bench.ImagingWorkload())
	}
	for _, pt := range pts {
		b.ReportMetric(pt.DurationS, pt.Config.Label+"-s")
	}
}

func BenchmarkTable1Histogram(b *testing.B) {
	p := bench.DefaultProcessingParams()
	var pts []bench.ProcPoint
	for i := 0; i < b.N; i++ {
		pts = bench.Table1(p, bench.HistogramWorkload())
	}
	for _, pt := range pts {
		b.ReportMetric(pt.DurationS, pt.Config.Label+"-s")
	}
}

// --- Fast-ingest path: the data preparation behind Tables 1-3 ---

// BenchmarkIngest measures loading raw units through the real engine in the
// three ingest configurations (serial LoadUnit, group-committed concurrent
// LoadUnit, batched pipeline LoadUnits), locally and over dbnet. The
// headline number is units/s; the pipeline is the fast path the ISSUE's
// acceptance targets (>=3x local, >=2x dbnet vs serial).
func BenchmarkIngest(b *testing.B) {
	p := bench.IngestParams{Day: 11, DayLength: 3600, UnitSeconds: 300, Workers: 8}
	units := bench.IngestUnits(p)
	for _, engine := range []string{"local", "dbnet"} {
		for _, mode := range []string{"serial", "grouped", "pipeline"} {
			b.Run(engine+"/"+mode, func(b *testing.B) {
				var last bench.IngestResult
				for i := 0; i < b.N; i++ {
					r, err := bench.IngestCell(engine, mode, p, units)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.UnitsPerSec, "units/s")
				b.ReportMetric(last.PhotonsPerSec, "photons/s")
			})
		}
	}
}

// --- Tables 2 and 3: workload characteristics (deterministic) ---

func BenchmarkTable2Characteristics(b *testing.B) {
	var c bench.Characteristics
	for i := 0; i < b.N; i++ {
		c = bench.WorkloadCharacteristics(bench.ImagingWorkload())
	}
	b.ReportMetric(float64(c.Queries), "queries")
	b.ReportMetric(float64(c.Edits), "edits")
	b.ReportMetric(c.InputMB, "inputMB")
}

func BenchmarkTable3Characteristics(b *testing.B) {
	var c bench.Characteristics
	for i := 0; i < b.N; i++ {
		c = bench.WorkloadCharacteristics(bench.HistogramWorkload())
	}
	b.ReportMetric(float64(c.Queries), "queries")
	b.ReportMetric(float64(c.Edits), "edits")
	b.ReportMetric(c.OutputMB, "outputMB")
}

// --- §3.4: approximated analysis (real codec + real analysis) ---

func BenchmarkApproximated(b *testing.B) {
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 4242, DayLength: 3600, BackgroundRate: 60, Flares: 2, Bursts: 0,
	})
	params := analysis.Params{
		Type: schema.AnaLightcurve, TStart: 0, TStop: 3600, TimeBins: 256, EnergyBins: 32,
	}
	view := wavelet.BuildView(day.Photons, 0, 3600,
		telemetry.EnergyMin, telemetry.EnergyMax, 256, 32, 0.05)

	b.Run("full-raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.Run(params, day.Photons); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(day.Photons)*18), "raw-bytes")
	})
	b.Run("approximated-view", func(b *testing.B) {
		p := params
		p.ApproxFrac = 0.05
		for i := 0; i < b.N; i++ {
			if _, err := analysis.RunOnView(p, view); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(view.Enc.CompressedSize()), "view-bytes")
	})
}

// --- Ablation: LOBs vs file system (§4.2) ---

func BenchmarkAblationLOBvsFile(b *testing.B) {
	payload := make([]byte, 256<<10) // one derived image
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	b.Run("lob-in-database", func(b *testing.B) {
		db, err := minidb.Open("", &minidb.Schema{
			Name: "lobs",
			Columns: []minidb.Column{
				{Name: "id", Type: minidb.IntType},
				{Name: "data", Type: minidb.BytesType},
			},
			PrimaryKey: "id",
		})
		if err != nil {
			b.Fatal(err)
		}
		const stored = 32
		for i := 0; i < stored; i++ {
			if _, err := db.Insert("lobs", minidb.Row{minidb.I(int64(i)), minidb.Bs(payload)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query(minidb.Query{
				Table: "lobs",
				Where: []minidb.Pred{{Col: "id", Op: minidb.OpEq, Val: minidb.I(int64(i % stored))}},
			})
			if err != nil || len(res.Rows) != 1 {
				b.Fatal(err)
			}
			if len(res.Rows[0][1].B) != len(payload) {
				b.Fatal("short lob")
			}
		}
	})

	b.Run("file-in-archive", func(b *testing.B) {
		arch, err := archive.NewLake("bench", archive.Disk, b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		const stored = 32
		for i := 0; i < stored; i++ {
			if err := arch.Store(fmt.Sprintf("img/%d.gif", i), payload); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, err := arch.Read(fmt.Sprintf("img/%d.gif", i%stored))
			if err != nil || len(data) != len(payload) {
				b.Fatal(err)
			}
		}
	})

	// What the separation really protects (§4.2): database manageability.
	// With LOBs inside, every checkpoint/backup drags the bulk data along;
	// with file references, the database stays small and recovery fast.
	lobSchema := &minidb.Schema{
		Name: "lobs",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "data", Type: minidb.BytesType},
		},
		PrimaryKey: "id",
	}
	refSchema := &minidb.Schema{
		Name: "refs",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "path", Type: minidb.StringType},
		},
		PrimaryKey: "id",
	}
	b.Run("lob-checkpoint", func(b *testing.B) {
		db, err := minidb.Open(b.TempDir(), lobSchema)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 32; i++ {
			if _, err := db.Insert("lobs", minidb.Row{minidb.I(int64(i)), minidb.Bs(payload)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(32*len(payload)), "snapshot-payload-bytes")
	})
	b.Run("file-ref-checkpoint", func(b *testing.B) {
		db, err := minidb.Open(b.TempDir(), refSchema)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		for i := 0; i < 32; i++ {
			if _, err := db.Insert("refs", minidb.Row{
				minidb.I(int64(i)), minidb.S(fmt.Sprintf("img/%d.gif", i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDM builds a DM with one stored item for the name-mapping and
// pooling ablations.
func benchDM(b *testing.B) (*dm.DM, string) {
	b.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		b.Fatal(err)
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := dm.Open(dm.Options{
		MetaDB: db, Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		b.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		b.Fatal(err)
	}
	itemID := "item-bench"
	if err := d.StoreItemFiles(itemID, dm.ImportUser, true, []dm.StoredFile{
		{Suffix: ".gif", Format: "gif", Data: []byte("GIF89a....")},
	}); err != nil {
		b.Fatal(err)
	}
	return d, itemID
}

// --- Ablation: dynamic name mapping (§4.3) ---

func BenchmarkAblationNameMapping(b *testing.B) {
	d, itemID := benchDM(b)
	b.Run("dynamic-two-queries", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Resolve(itemID, schema.NameFile); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The baseline a static scheme would use: one indexed point query.
	b.Run("static-single-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.MetaDB().Query(minidb.Query{
				Table: schema.TableLocEntries,
				Where: []minidb.Pred{{Col: "item_id", Op: minidb.OpEq, Val: minidb.S(itemID)}},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: session caching (§5.3) ---

func BenchmarkAblationPooling(b *testing.B) {
	d, _ := benchDM(b)
	sess, err := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionHLE)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cached-session-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := d.SessionFor(sess.Token, "127.0.0.1"); got == nil {
				b.Fatal("cache miss")
			}
		}
	})
	b.Run("full-authentication", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionHLE); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Real-path microbenchmarks ---

func BenchmarkMinidbIndexedQuery(b *testing.B) {
	db, err := minidb.Open("", &minidb.Schema{
		Name: "t",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "k", Type: minidb.StringType},
		},
		PrimaryKey: "id",
		Indexes:    []string{"k"},
	})
	if err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 100_000; i++ {
		if _, err := tx.Insert("t", minidb.Row{
			minidb.I(int64(i)), minidb.S(fmt.Sprintf("k%05d", i%1000)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(minidb.Query{
			Table: "t",
			Where: []minidb.Pred{{Col: "k", Op: minidb.OpEq, Val: minidb.S(fmt.Sprintf("k%05d", i%1000))}},
		})
		if err != nil || len(res.Rows) != 100 {
			b.Fatalf("rows=%d err=%v", len(res.Rows), err)
		}
	}
}

// BenchmarkQueryParallel measures the lock-free read path under
// GOMAXPROCS-way parallelism with a writer committing batches the whole
// time. Before snapshot reads, every query serialized behind a global
// RWMutex and stalled for the duration of each commit; now readers run
// against the last published snapshot and never block. Compare -cpu=1,2,4
// runs: per-op time should hold roughly flat as parallelism grows.
func BenchmarkQueryParallel(b *testing.B) {
	db, err := minidb.Open("", &minidb.Schema{
		Name: "t",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "k", Type: minidb.StringType},
			{Name: "v", Type: minidb.IntType},
		},
		PrimaryKey: "id",
		Indexes:    []string{"k"},
	})
	if err != nil {
		b.Fatal(err)
	}
	const seed = 50_000
	tx := db.Begin()
	for i := 0; i < seed; i++ {
		if _, err := tx.Insert("t", minidb.Row{
			minidb.I(int64(i)), minidb.S(fmt.Sprintf("k%04d", i%500)), minidb.I(int64(i * 7)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}

	// Background ingest: keep committing while the readers run.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		id := int64(seed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := db.Begin()
			for j := 0; j < 50; j++ {
				if _, err := tx.Insert("t", minidb.Row{
					minidb.I(id), minidb.S(fmt.Sprintf("k%04d", id%500)), minidb.I(id * 7),
				}); err != nil {
					tx.Rollback()
					return
				}
				id++
			}
			if tx.Commit() != nil {
				return
			}
		}
	}()

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			switch i % 3 {
			case 0: // indexed point lookup
				res, err := db.Query(minidb.Query{
					Table: "t",
					Where: []minidb.Pred{{Col: "k", Op: minidb.OpEq,
						Val: minidb.S(fmt.Sprintf("k%04d", i%500))}},
				})
				if err != nil || len(res.Rows) == 0 {
					b.Fatalf("rows=%d err=%v", len(res.Rows), err)
				}
			case 1: // count through the index
				res, err := db.Query(minidb.Query{
					Table: "t", Count: true,
					Where: []minidb.Pred{{Col: "k", Op: minidb.OpEq,
						Val: minidb.S(fmt.Sprintf("k%04d", i%500))}},
				})
				if err != nil || res.Count == 0 {
					b.Fatal(err)
				}
			default: // ordered browse page
				res, err := db.Query(minidb.Query{
					Table:   "t",
					Where:   []minidb.Pred{{Col: "k", Op: minidb.OpPrefix, Val: minidb.S("k00")}},
					OrderBy: []minidb.Order{{Col: "v", Desc: true}},
					Limit:   20,
					Project: []string{"id", "v"},
				})
				if err != nil || len(res.Rows) == 0 {
					b.Fatal(err)
				}
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	st := db.Stats()
	b.ReportMetric(float64(st.SnapshotPublishes), "commits-during-run")
}

func BenchmarkWaveletEncodeDecode(b *testing.B) {
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 9, DayLength: 3600, BackgroundRate: 30, Flares: 1, Bursts: 0,
	})
	b.Run("build-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wavelet.BuildView(day.Photons, 0, 3600, 3, 20000, 256, 32, 0.1)
		}
	})
	v := wavelet.BuildView(day.Photons, 0, 3600, 3, 20000, 256, 32, 0.1)
	b.Run("decode-lightcurve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.Lightcurve(1)
		}
	})
}

func BenchmarkImagingBackProjection(b *testing.B) {
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 3, DayLength: 600, BackgroundRate: 10, Flares: 1, Bursts: 0,
	})
	params := analysis.Params{
		Type: schema.AnaImaging, TStart: 0, TStop: 600, ImageSize: 32, PixelSize: 64,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Run(params, day.Photons); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(day.Photons)), "photons")
}

func BenchmarkBrowsePageRealSystem(b *testing.B) {
	// The real §7.2 request anatomy: a full HLE page through the actual
	// web tier, DM, query engine and name mapping.
	repo, err := Open(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	reports, err := repo.LoadDay(1, MissionConfig{
		Seed: 17, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0,
	}, 1200)
	if err != nil || len(reports) == 0 || reports[0].Events == 0 {
		b.Fatalf("load: %v", err)
	}
	hleID := reports[0].HLEs[0]
	ts := httptest.NewServer(repo.Handler())
	defer ts.Close()

	before := repo.Node().MetaDB.Stats().Queries
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/hle?id=" + hleID)
		if err != nil {
			b.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || n == 0 {
			b.Fatalf("status %d, %d bytes", resp.StatusCode, n)
		}
	}
	b.StopTimer()
	queries := repo.Node().MetaDB.Stats().Queries - before
	b.ReportMetric(float64(queries)/float64(b.N), "dbq/page")
}

func BenchmarkEndToEndAnalysis(b *testing.B) {
	repo, err := Open(Config{DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	reports, err := repo.LoadDay(1, MissionConfig{
		Seed: 23, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0,
	}, 1200)
	if err != nil || len(reports) == 0 || reports[0].Events == 0 {
		b.Fatalf("load: %v", err)
	}
	sess, err := repo.ImportSession()
	if err != nil {
		b.Fatal(err)
	}
	hleID := reports[0].HLEs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Analyze(sess, Histogram, hleID, map[string]interface{}{
			"energy_bins": 24,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: materialized count views (§6.3) ---

func BenchmarkAblationMatview(b *testing.B) {
	db, err := minidb.Open("", &minidb.Schema{
		Name: "members",
		Columns: []minidb.Column{
			{Name: "id", Type: minidb.IntType},
			{Name: "catalog", Type: minidb.StringType},
		},
		PrimaryKey: "id",
		Indexes:    []string{"catalog"},
	})
	if err != nil {
		b.Fatal(err)
	}
	const catalogs = 20
	tx := db.Begin()
	for i := 0; i < 50_000; i++ {
		if _, err := tx.Insert("members", minidb.Row{
			minidb.I(int64(i)), minidb.S(fmt.Sprintf("cat-%02d", i%catalogs)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateCountView("by-catalog", "members", "catalog"); err != nil {
		b.Fatal(err)
	}

	b.Run("count-query-per-catalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := db.Query(minidb.Query{
				Table: "members", Count: true,
				Where: []minidb.Pred{{Col: "catalog", Op: minidb.OpEq,
					Val: minidb.S(fmt.Sprintf("cat-%02d", i%catalogs))}},
			})
			if err != nil || res.Count != 2500 {
				b.Fatalf("count=%d err=%v", res.Count, err)
			}
		}
	})
	b.Run("materialized-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := db.ViewCount("by-catalog", minidb.S(fmt.Sprintf("cat-%02d", i%catalogs)))
			if err != nil || n != 2500 {
				b.Fatalf("count=%d err=%v", n, err)
			}
		}
	})
}
