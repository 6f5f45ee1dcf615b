package pl

import (
	"context"
	"io"
	"log"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/archive"
	"repro/internal/dm"
	"repro/internal/fits"
	"repro/internal/minidb"
	"repro/internal/schema"
	"repro/internal/telemetry"
)

// hedcRig is a full middle tier: DM with loaded data, PL frontend with the
// four analysis strategies on a 2-interpreter manager.
type hedcRig struct {
	dm       *dm.DM
	frontend *Frontend
	session  *dm.Session
	hleID    string
	unitLen  float64
}

func newHEDCRig(t *testing.T) *hedcRig {
	t.Helper()
	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.NewLake("disk-0", archive.Disk, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dm.Open(dm.Options{
		MetaDB: db, DefaultArchive: "disk-0",
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterArchive(arch, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bootstrap("secret"); err != nil {
		t.Fatal(err)
	}
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 77, DayLength: 1200, BackgroundRate: 4, Flares: 1, Bursts: 0,
	})
	units := telemetry.SegmentDay(day, 1200)
	rep, err := d.LoadUnit(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 {
		t.Fatal("no events detected")
	}
	sess, err := d.Authenticate(dm.ImportUser, "secret", "127.0.0.1", dm.SessionANA)
	if err != nil {
		t.Fatal(err)
	}

	dir := NewDirectory()
	mgr, err := NewManager("mgr-server", 2, Routines(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	dir.RegisterManager(mgr, "server")
	f := NewFrontend(dir, 2, 20)
	for _, s := range NewAnalysisStrategies(d) {
		f.RegisterStrategy(s)
	}
	return &hedcRig{dm: d, frontend: f, session: sess, hleID: rep.HLEs[0], unitLen: 1200}
}

func (r *hedcRig) submit(t *testing.T, anaType string, extra map[string]interface{}) *Ticket {
	t.Helper()
	params := map[string]interface{}{
		"tstart": 0.0, "tstop": r.unitLen, "hle_id": r.hleID,
	}
	for k, v := range extra {
		params[k] = v
	}
	tk, err := r.frontend.Submit(&Request{
		ID: "req-" + anaType, Type: anaType, Session: r.session, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestEndToEndLightcurve(t *testing.T) {
	r := newHEDCRig(t)
	tk := r.submit(t, schema.AnaLightcurve, map[string]interface{}{"time_bins": 64})
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := r.dm.GetANA(r.session, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if ana.Type != schema.AnaLightcurve || ana.NPhotons == 0 || ana.ItemID == "" {
		t.Fatalf("ana = %+v", ana)
	}
	// The deliverable files are retrievable: a GIF, a log, a params record.
	data, rn, err := r.dm.ReadItem(r.session, ana.ItemID)
	if err != nil {
		t.Fatal(err)
	}
	if rn.Format != "gif" || len(data) == 0 {
		t.Fatalf("item = %+v (%d bytes)", rn, len(data))
	}
	// The estimate existed and was in a plausible range.
	if tk.Estimate == nil || !tk.Estimate.Feasible || tk.Estimate.InputBytes == 0 {
		t.Fatalf("estimate = %+v", tk.Estimate)
	}
}

func TestEndToEndImagingCommitsPosition(t *testing.T) {
	r := newHEDCRig(t)
	h, err := r.dm.GetHLE(r.session, r.hleID)
	if err != nil {
		t.Fatal(err)
	}
	tk := r.submit(t, schema.AnaImaging, map[string]interface{}{
		"tstart": h.TStart, "tstop": h.TStop,
		"image_size": 32, "pixel_size": 64.0,
	})
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := r.dm.GetANA(r.session, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if ana.PeakValue <= 0 {
		t.Fatalf("imaging produced no peak: %+v", ana)
	}
}

func TestEndToEndViewBasedAnalysis(t *testing.T) {
	r := newHEDCRig(t)
	tk := r.submit(t, schema.AnaLightcurve, map[string]interface{}{
		"use_view": true, "approx_frac": 0.5,
	})
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := r.dm.GetANA(r.session, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if !ana.UseView {
		t.Fatalf("analysis did not use the view: %+v", ana)
	}
}

func TestEstimateInfeasibleOutsideData(t *testing.T) {
	r := newHEDCRig(t)
	est, err := r.frontend.EstimateOnly(&Request{
		Type: schema.AnaHistogram, Session: r.session,
		Params: map[string]interface{}{"tstart": 1e6, "tstop": 1e6 + 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Feasible {
		t.Fatal("estimate feasible with no data")
	}
	if _, err := r.frontend.Submit(&Request{
		Type: schema.AnaHistogram, Session: r.session,
		Params: map[string]interface{}{"tstart": 1e6, "tstop": 1e6 + 100},
	}); err == nil {
		t.Fatal("infeasible request admitted")
	}
}

func TestRedundantWorkDetection(t *testing.T) {
	r := newHEDCRig(t)
	extra := map[string]interface{}{"time_bins": 32}
	tk := r.submit(t, schema.AnaHistogram, extra)
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	committed, err := r.dm.GetANA(r.session, anaID)
	if err != nil {
		t.Fatal(err)
	}
	// §3.5: before repeating the analysis, the system finds the existing one.
	found, err := r.dm.FindExistingAnalysis(r.session, committed)
	if err != nil || found == nil || found.ID != anaID {
		t.Fatalf("redundant-work check failed: %v %v", found, err)
	}
}

func TestAnalysisParamsValidation(t *testing.T) {
	r := newHEDCRig(t)
	if _, err := r.frontend.Submit(&Request{
		Type: schema.AnaLightcurve, Session: r.session,
		Params: map[string]interface{}{"tstop": 10.0}, // missing tstart
	}); err == nil {
		t.Fatal("missing tstart accepted")
	}
}

func TestEstimateErrorRecordedAgainstActual(t *testing.T) {
	r := newHEDCRig(t)
	tk := r.submit(t, schema.AnaSpectrogram, nil)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Estimation ran before execution and produced a nonnegative duration.
	if tk.Estimate.Seconds < 0 {
		t.Fatalf("estimate = %+v", tk.Estimate)
	}
}

func TestAnalysisParamsDecoding(t *testing.T) {
	s := &AnalysisStrategy{anaType: schema.AnaImaging, predictor: newPredictor()}
	p, err := s.params(&Request{Params: map[string]interface{}{
		"tstart": 1.0, "tstop": 2.0, "emin": 3.0, "emax": 4.0,
		"time_bins": 5, "energy_bins": int64(6), "image_size": 7.0,
		"pixel_size": 8.0, "center_x": 9.0, "center_y": 10.0, "approx_frac": 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p.TStart != 1 || p.TimeBins != 5 || p.EnergyBins != 6 || p.ImageSize != 7 ||
		p.CenterY != 10 || p.ApproxFrac != 0.5 {
		t.Fatalf("params = %+v", p)
	}
}

func TestUserSubmittedRoutine(t *testing.T) {
	r := newHEDCRig(t)
	// A scientist submits a hardness-ratio routine: counts above vs below
	// 25 keV per time slice — an analysis HEDC never shipped.
	routine := &UserRoutine{
		Name:     "hardness-ratio",
		Author:   "ella",
		Describe: "hard/soft count ratio over time",
		Fn: func(ctx context.Context, photons []fits.Photon, p analysis.Params) (*UserResult, error) {
			const bins = 16
			hard := make([]float64, bins)
			soft := make([]float64, bins)
			dt := (p.TStop - p.TStart) / bins
			for _, ph := range photons {
				b := int((ph.Time - p.TStart) / dt)
				if b < 0 || b >= bins {
					continue
				}
				if ph.Energy >= 25 {
					hard[b]++
				} else {
					soft[b]++
				}
			}
			out := make([]float64, bins)
			peak := 0.0
			for i := range out {
				out[i] = hard[i] / (soft[i] + 1)
				if out[i] > peak {
					peak = out[i]
				}
			}
			return &UserResult{
				Series:   out,
				Scalars:  map[string]float64{"peak": peak},
				LogLines: []string{"hardness ratio computed"},
			}, nil
		},
	}
	strategy, err := InstallUserRoutine(r.dm, r.frontend.dir, routine)
	if err != nil {
		t.Fatal(err)
	}
	r.frontend.RegisterStrategy(strategy)

	// The new type is now a first-class request.
	tk, err := r.frontend.Submit(&Request{
		Type: "hardness-ratio", Session: r.session,
		Params: map[string]interface{}{"tstart": 0.0, "tstop": r.unitLen, "hle_id": r.hleID},
	})
	if err != nil {
		t.Fatal(err)
	}
	anaID, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ana, err := r.dm.GetANA(r.session, anaID)
	if err != nil {
		t.Fatal(err)
	}
	if ana.Type != "hardness-ratio" || ana.Algorithm != "user:ella" {
		t.Fatalf("ana = %+v", ana)
	}
	if ana.PeakValue <= 0 || ana.ItemID == "" {
		t.Fatalf("user analysis produced nothing: %+v", ana)
	}
	// And a rendered picture exists for the web pages.
	data, rn, err := r.dm.ReadItem(r.session, ana.ItemID)
	if err != nil || rn.Format != "gif" || len(data) == 0 {
		t.Fatalf("user analysis image: %v %v", rn, err)
	}
}

func TestUserRoutineValidation(t *testing.T) {
	r := newHEDCRig(t)
	if _, err := InstallUserRoutine(r.dm, r.frontend.dir, &UserRoutine{Name: "x"}); err == nil {
		t.Fatal("routine without function accepted")
	}
	bad := &UserRoutine{Name: schema.AnaImaging, Fn: func(ctx context.Context, p []fits.Photon, a analysis.Params) (*UserResult, error) {
		return &UserResult{}, nil
	}}
	if _, err := InstallUserRoutine(r.dm, r.frontend.dir, bad); err == nil {
		t.Fatal("shadowing a built-in analysis accepted")
	}
}
