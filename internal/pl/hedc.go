package pl

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/dm"
	"repro/internal/fits"
	"repro/internal/idl"
	"repro/internal/schema"
	"repro/internal/wavelet"
)

// The concrete HEDC strategies: one strategy instance per analysis type
// (imaging, lightcurve, spectrogram, histogram), all sharing the same
// shape — stage raw data through the DM, run the routine on an IDL server,
// render deliverables, commit an ANA entity with its files.

// Routine names registered on the IDL servers.
const (
	RoutineAnalyze     = "hedc_analyze"
	RoutineAnalyzeView = "hedc_analyze_view"
)

// Routines returns the routine set to load into IDL servers for HEDC
// analyses. The routines do real work: they execute the analysis package
// over the staged photons.
func Routines() map[string]idl.Routine {
	return map[string]idl.Routine{
		RoutineAnalyze: func(ctx context.Context, args idl.Args) (idl.Args, error) {
			params, ok := args["params"].(analysis.Params)
			if !ok {
				return nil, fmt.Errorf("pl: %s: missing params", RoutineAnalyze)
			}
			photons, _ := args["photons"].([]fits.Photon)
			res, err := analysis.Run(params, photons)
			if err != nil {
				return nil, err
			}
			return idl.Args{"result": res}, nil
		},
		RoutineAnalyzeView: func(ctx context.Context, args idl.Args) (idl.Args, error) {
			params, ok := args["params"].(analysis.Params)
			if !ok {
				return nil, fmt.Errorf("pl: %s: missing params", RoutineAnalyzeView)
			}
			view, ok := args["view"].(*wavelet.View)
			if !ok {
				return nil, fmt.Errorf("pl: %s: missing view", RoutineAnalyzeView)
			}
			res, err := analysis.RunOnView(params, view)
			if err != nil {
				return nil, err
			}
			return idl.Args{"result": res}, nil
		},
	}
}

// predictor is the estimation phase's "simple predictor" (§5.1): a fixed
// cost per unit of work, per analysis type — seconds per photon (binned)
// or per photon-kilopixel (imaging).
type predictor map[string]float64

func newPredictor() predictor {
	return predictor{
		schema.AnaImaging:     2e-6,
		schema.AnaLightcurve:  1e-7,
		schema.AnaSpectrogram: 2e-7,
		schema.AnaHistogram:   1e-7,
	}
}

func (p predictor) predict(anaType string, work float64) float64 {
	return p[anaType] * work
}

// AnalysisStrategy implements Strategy for one analysis type.
type AnalysisStrategy struct {
	dm        *dm.DM
	anaType   string
	predictor predictor
}

// NewAnalysisStrategies builds the four standard strategies over a DM.
func NewAnalysisStrategies(d *dm.DM) []*AnalysisStrategy {
	p := newPredictor()
	var out []*AnalysisStrategy
	for _, t := range []string{
		schema.AnaImaging, schema.AnaLightcurve, schema.AnaSpectrogram, schema.AnaHistogram,
	} {
		out = append(out, &AnalysisStrategy{dm: d, anaType: t, predictor: p})
	}
	return out
}

// Type implements Strategy.
func (a *AnalysisStrategy) Type() string { return a.anaType }

// params decodes the request's dynamic parameter structure.
func (a *AnalysisStrategy) params(req *Request) (analysis.Params, error) {
	p := analysis.Params{Type: a.anaType}
	get := func(key string) (float64, bool) {
		v, ok := req.Params[key]
		if !ok {
			return 0, false
		}
		switch x := v.(type) {
		case float64:
			return x, true
		case int:
			return float64(x), true
		case int64:
			return float64(x), true
		}
		return 0, false
	}
	var ok bool
	if p.TStart, ok = get("tstart"); !ok {
		return p, fmt.Errorf("pl: request missing tstart")
	}
	if p.TStop, ok = get("tstop"); !ok {
		return p, fmt.Errorf("pl: request missing tstop")
	}
	if v, ok := get("emin"); ok {
		p.EMin = v
	}
	if v, ok := get("emax"); ok {
		p.EMax = v
	}
	if v, ok := get("time_bins"); ok {
		p.TimeBins = int(v)
	}
	if v, ok := get("energy_bins"); ok {
		p.EnergyBins = int(v)
	}
	if v, ok := get("image_size"); ok {
		p.ImageSize = int(v)
	}
	if v, ok := get("pixel_size"); ok {
		p.PixelSize = v
	}
	if v, ok := get("center_x"); ok {
		p.CenterX = v
	}
	if v, ok := get("center_y"); ok {
		p.CenterY = v
	}
	if v, ok := get("approx_frac"); ok {
		p.ApproxFrac = v
	}
	return p, nil
}

func (a *AnalysisStrategy) useView(req *Request) bool {
	v, _ := req.Params["use_view"].(bool)
	return v && a.anaType != schema.AnaImaging
}

// workUnits estimates the work the request implies, for the predictor.
func (a *AnalysisStrategy) workUnits(p analysis.Params, photons float64) float64 {
	if a.anaType == schema.AnaImaging {
		size := float64(p.ImageSize)
		if size == 0 {
			size = 64
		}
		return photons * size * size / 1000
	}
	return photons
}

// Estimate implements Strategy: feasibility (is there data?) plus a
// duration prediction from the catalog's photon counts — no raw data is
// touched.
func (a *AnalysisStrategy) Estimate(req *Request) (*Estimate, error) {
	p, err := a.params(req)
	if err != nil {
		return nil, err
	}
	units, err := a.dm.UnitsInRange(p.TStart, p.TStop)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return &Estimate{Feasible: false, Reason: "no raw data in the requested window"}, nil
	}
	var photons float64
	var bytes int64
	for _, u := range units {
		span := u.TStop - u.TStart
		if span <= 0 {
			continue
		}
		overlap := math.Min(u.TStop, p.TStop) - math.Max(u.TStart, p.TStart)
		if overlap <= 0 {
			continue
		}
		photons += float64(u.Photons) * overlap / span
		bytes += int64(float64(u.Photons) * 18 * overlap / span)
	}
	if frac := p.ApproxFrac; frac > 0 && frac < 1 {
		photons *= frac
	}
	secs := a.predictor.predict(a.anaType, a.workUnits(p, photons))
	return &Estimate{
		Seconds:    secs,
		InputBytes: bytes,
		Plan:       fmt.Sprintf("%s over %d units, ~%.0f photons", a.anaType, len(units), photons),
		Feasible:   true,
	}, nil
}

// Prepare implements Strategy: stage the input data through the DM and
// build the routine invocation. The PL does the data management the IDL
// servers cannot (§2.3).
func (a *AnalysisStrategy) Prepare(req *Request) (string, idl.Args, error) {
	p, err := a.params(req)
	if err != nil {
		return "", nil, err
	}
	if a.useView(req) {
		views, err := a.dm.ViewsInRange(req.Session, p.TStart, p.TStop)
		if err != nil {
			return "", nil, err
		}
		if len(views) == 0 {
			return "", nil, fmt.Errorf("pl: no views cover [%v, %v]", p.TStart, p.TStop)
		}
		// Use the view with the largest overlap; clamp params to it.
		best, bestOverlap := views[0], 0.0
		for _, v := range views {
			o := math.Min(v.TStop, p.TStop) - math.Max(v.TStart, p.TStart)
			if o > bestOverlap {
				best, bestOverlap = v, o
			}
		}
		return RoutineAnalyzeView, idl.Args{"params": p, "view": best, "input_bytes": int64(best.Enc.CompressedSize())}, nil
	}
	photons, bytesRead, err := a.dm.RawPhotons(req.Session, p.TStart, p.TStop)
	if err != nil {
		return "", nil, err
	}
	return RoutineAnalyze, idl.Args{"params": p, "photons": photons, "input_bytes": bytesRead}, nil
}

// Deliver implements Strategy: turn the routine output into user-facing
// deliverables — the GIF, the process log and the parameter record.
func (a *AnalysisStrategy) Deliver(req *Request, out idl.Args) (*Delivery, error) {
	res, ok := out["result"].(*analysis.Result)
	if !ok {
		return nil, fmt.Errorf("pl: routine returned no result")
	}
	logText := ""
	for _, line := range res.Log {
		logText += line + "\n"
	}
	p, _ := a.params(req)
	paramsText := fmt.Sprintf("type=%s tstart=%g tstop=%g emin=%g emax=%g bins=%dx%d image=%d frac=%g\n",
		a.anaType, p.TStart, p.TStop, p.EMin, p.EMax, p.TimeBins, p.EnergyBins, p.ImageSize, p.ApproxFrac)
	return &Delivery{
		Files: []dm.StoredFile{
			{Suffix: ".gif", Format: "gif", Data: res.GIF},
			{Suffix: ".log", Format: "log", Data: []byte(logText)},
			{Suffix: ".params", Format: "params", Data: []byte(paramsText)},
		},
		Result: idl.Args{"result": res},
	}, nil
}

// Commit implements Strategy: write the ANA entity back through the DM
// and teach the predictor what the execution actually cost.
func (a *AnalysisStrategy) Commit(req *Request, del *Delivery) (string, error) {
	res := del.Result["result"].(*analysis.Result)
	p, _ := a.params(req)
	hleID, _ := req.Params["hle_id"].(string)
	if hleID == "" {
		return "", fmt.Errorf("pl: commit requires hle_id")
	}
	frac := p.ApproxFrac
	if frac == 0 {
		frac = 1
	}
	ana := &schema.ANA{
		HLEID: hleID, Type: a.anaType, Algorithm: algorithmName(a.anaType),
		Version: 1, Status: schema.AnaCommitted,
		TStart: p.TStart, TStop: p.TStop, EMin: p.EMin, EMax: p.EMax,
		TimeBins: int64(p.TimeBins), EnergyBins: int64(p.EnergyBins),
		ImageSize: int64(p.ImageSize), PixelArcsec: p.PixelSize,
		DetectorMask: 0x1FF, Segments: 2,
		ApproxFrac: frac, UseView: a.useView(req),
		NPhotons: res.NPhotons,
		PeakX:    res.PeakX, PeakY: res.PeakY, PeakValue: res.PeakValue,
		ResultTotal: res.Total, ResultMin: res.Min, ResultMax: res.Max, ResultMean: res.Mean,
		CalibVersion: 1,
	}
	if v, ok := req.Params["calib_version"].(int64); ok {
		ana.CalibVersion = v
	}
	id, err := a.dm.ImportAnalysis(req.Session, ana, del.Files)
	if err != nil {
		return "", err
	}
	return id, nil
}

// CacheKey implements CacheKeyer. An analysis delivery is a pure function
// of the decoded parameters and the raw_units/views catalog state: photon
// items are write-once (recalibration bumps raw_units rows, never rewrites
// item bytes), unit/view membership changes commit to those two tables, and
// sessions carry no data visibility for raw telemetry — so those tables'
// epochs are exactly the delivery's input version. Commits of results
// (loc_*, ana, hle) deliberately do not participate: they cannot change
// what a re-run would compute.
func (a *AnalysisStrategy) CacheKey(req *Request) (string, string, bool) {
	p, err := a.params(req)
	if err != nil {
		return "", "", false
	}
	key := fmt.Sprintf("%s|view=%t|ts=%g|te=%g|e=%g:%g|b=%d:%d|img=%d|px=%g|c=%g:%g|f=%g",
		a.anaType, a.useView(req),
		p.TStart, p.TStop, p.EMin, p.EMax, p.TimeBins, p.EnergyBins,
		p.ImageSize, p.PixelSize, p.CenterX, p.CenterY, p.ApproxFrac)
	return key, a.dm.DataEpoch(schema.TableRawUnits, schema.TableViews), true
}

func algorithmName(anaType string) string {
	switch anaType {
	case schema.AnaImaging:
		return "back-projection"
	case schema.AnaLightcurve:
		return "time-binning"
	case schema.AnaSpectrogram:
		return "time-energy-binning"
	case schema.AnaHistogram:
		return "energy-binning"
	}
	return anaType
}
