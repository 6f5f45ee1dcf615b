package bench

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// Ingest experiment (Tables 1–3 data preparation, measured). The paper's
// processing tables hinge on data that has been loaded: raw units stored,
// views pre-computed, events detected. This experiment measures that
// loading path end to end on the real engine — not the discrete-event
// simulation — in three configurations that isolate the fast-ingest
// machinery:
//
//	serial    one LoadUnit at a time (one fsync per tuple transaction)
//	grouped   N concurrent LoadUnit workers; every single-statement write
//	          rides the engine's group-commit path, so concurrent
//	          committers share WAL fsyncs
//	pipeline  LoadUnits: batched transactions (3 per unit), bulk id
//	          allocation, and a derive/store worker pipeline
//
// Each configuration runs both against a local on-disk engine and through
// dbnet (the Figure 5 deployment, where a replica's every statement is a
// network round trip — the configuration batching helps most).

// IngestParams sizes the experiment.
type IngestParams struct {
	Day         int     // synthetic mission day number (seed)
	DayLength   float64 // seconds of observation to generate
	UnitSeconds float64 // segmentation granularity
	Workers     int     // grouped/pipeline concurrency (0 = a sensible default)
	Reps        int     // repetitions per cell, best kept (0 = 1)
}

// DefaultIngestParams: ~96 units, a few hundred thousand photons — enough
// work that per-transaction fsyncs dominate the serial configuration.
// Three reps per cell with best-of kept: ingest cells are fsync-bound, and
// fsync latency on a shared host is long-tailed, so the best rep is the
// stable estimate of the configuration's floor.
func DefaultIngestParams() IngestParams {
	return IngestParams{Day: 11, DayLength: 14400, UnitSeconds: 150, Reps: 3}
}

// IngestResult is one cell of the experiment.
type IngestResult struct {
	Engine        string  `json:"engine"` // local | dbnet
	Mode          string  `json:"mode"`   // serial | grouped | pipeline
	Units         int     `json:"units"`
	Photons       int     `json:"photons"`
	Seconds       float64 `json:"seconds"`
	UnitsPerSec   float64 `json:"units_per_sec"`
	PhotonsPerSec float64 `json:"photons_per_sec"`
	Speedup       float64 `json:"speedup_vs_serial"` // within the same engine
}

// ingestEnv is one fresh repository for one cell: an on-disk engine (WAL
// fsyncs are the serial bottleneck being measured), optionally served over
// a real TCP loopback via dbnet.
type ingestEnv struct {
	d   *dm.DM
	db  *minidb.DB
	srv *dbnet.Server
	cl  *dbnet.Client
	dir string
}

func newIngestEnv(engine string) (*ingestEnv, error) {
	dir, err := os.MkdirTemp("", "hedc-ingest")
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{dir: dir}
	env.db, err = minidb.Open(filepath.Join(dir, "db"), schema.AllSchemas()...)
	if err != nil {
		env.Close()
		return nil, err
	}
	var eng minidb.Engine = env.db
	if engine == "dbnet" {
		env.srv, err = dbnet.Listen("127.0.0.1:0", dbnet.Options{DB: env.db})
		if err != nil {
			env.Close()
			return nil, err
		}
		env.cl, err = dbnet.Dial(dbnet.ClientOptions{Addr: env.srv.Addr(), PoolSize: 16})
		if err != nil {
			env.Close()
			return nil, err
		}
		eng = env.cl
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, filepath.Join(dir, "arch"), 0)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.d, err = dm.Open(dm.Options{
		Node: "bench-ingest", MetaDB: eng,
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	if err := env.d.RegisterArchive(arch, "/a"); err != nil {
		env.Close()
		return nil, err
	}
	if err := env.d.Bootstrap("secret"); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

func (e *ingestEnv) Close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.db != nil {
		e.db.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// IngestUnits generates the experiment's unit set (deterministic per params).
func IngestUnits(p IngestParams) []*telemetry.Unit {
	day := telemetry.GenerateDay(p.Day, telemetry.Config{DayLength: p.DayLength})
	return telemetry.SegmentDay(day, p.UnitSeconds)
}

// IngestCell runs one (engine, mode) cell on a fresh repository and
// returns its throughput.
func IngestCell(engine, mode string, p IngestParams, units []*telemetry.Unit) (IngestResult, error) {
	if units == nil {
		units = IngestUnits(p)
	}
	workers := p.Workers
	if workers <= 0 {
		// Not GOMAXPROCS: ingest concurrency pays off even on one core
		// because the waits (fsyncs, network round trips) overlap.
		workers = 8
		if n := runtime.GOMAXPROCS(0); n > workers {
			workers = n
		}
	}
	photons := 0
	for _, u := range units {
		photons += len(u.Photons)
	}
	env, err := newIngestEnv(engine)
	if err != nil {
		return IngestResult{}, err
	}
	defer env.Close()

	start := time.Now()
	switch mode {
	case "serial":
		for _, u := range units {
			if _, err := env.d.LoadUnit(u); err != nil {
				return IngestResult{}, err
			}
		}
	case "grouped":
		jobs := make(chan *telemetry.Unit)
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range jobs {
					if _, err := env.d.LoadUnit(u); err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
				}
			}()
		}
		for _, u := range units {
			jobs <- u
		}
		close(jobs)
		wg.Wait()
		select {
		case err := <-errs:
			return IngestResult{}, err
		default:
		}
	case "pipeline":
		if _, err := env.d.LoadUnits(units, workers); err != nil {
			return IngestResult{}, err
		}
	default:
		return IngestResult{}, fmt.Errorf("bench: unknown ingest mode %q", mode)
	}
	secs := time.Since(start).Seconds()

	// Sanity: every unit must actually be in the repository.
	if n := env.d.Stats().UnitsLoaded.Load(); int(n) != len(units) {
		return IngestResult{}, fmt.Errorf("bench: %s/%s loaded %d of %d units", engine, mode, n, len(units))
	}
	return IngestResult{
		Engine: engine, Mode: mode,
		Units: len(units), Photons: photons, Seconds: secs,
		UnitsPerSec:   float64(len(units)) / secs,
		PhotonsPerSec: float64(photons) / secs,
	}, nil
}

// RunIngest runs the full engine × mode sweep.
func RunIngest(p IngestParams, logf func(string, ...any)) ([]IngestResult, error) {
	units := IngestUnits(p)
	reps := p.Reps
	if reps <= 0 {
		reps = 1
	}
	var out []IngestResult
	for _, engine := range []string{"local", "dbnet"} {
		var serial float64
		for _, mode := range []string{"serial", "grouped", "pipeline"} {
			var r IngestResult
			for rep := 0; rep < reps; rep++ {
				c, err := IngestCell(engine, mode, p, units)
				if err != nil {
					return out, err
				}
				if rep == 0 || c.UnitsPerSec > r.UnitsPerSec {
					r = c
				}
			}
			if mode == "serial" {
				serial = r.UnitsPerSec
			}
			if serial > 0 {
				r.Speedup = r.UnitsPerSec / serial
			}
			if logf != nil {
				logf("ingest %s/%s: %.1f units/s (%.2fx)", engine, mode, r.UnitsPerSec, r.Speedup)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// FormatIngest renders the sweep in the evaluation's tabular style.
func FormatIngest(results []IngestResult) string {
	var b strings.Builder
	if len(results) > 0 {
		fmt.Fprintf(&b, "Ingest — data preparation throughput (%d units, %d photons)\n",
			results[0].Units, results[0].Photons)
	}
	fmt.Fprintf(&b, "  %-6s %-9s %10s %12s %9s\n", "engine", "mode", "units/s", "photons/s", "speedup")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-6s %-9s %10.2f %12.0f %8.2fx\n",
			r.Engine, r.Mode, r.UnitsPerSec, r.PhotonsPerSec, r.Speedup)
	}
	return b.String()
}
