package pl

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dm"
	"repro/internal/fits"
	"repro/internal/idl"
	"repro/internal/schema"
)

// User-submitted analysis routines (§3.3): "There is also the possibility
// for users to submit analysis routines that can be included into the
// system and made available to other users." A UserRoutine is the
// submission: a name and a function over the photon stream. Installing it
// registers a routine on every manager's interpreters and a strategy on
// the frontend — no other tier changes, which is the §5.1 point of the
// strategy framework.

// UserResult is what a user routine returns: a scalar/vector result plus
// an optional rendering. The PL wraps it into a committed ANA entity like
// any built-in analysis.
type UserResult struct {
	Series   []float64 // 1-D result (rendered as a bar plot if GIF is nil)
	Scalars  map[string]float64
	GIF      []byte
	LogLines []string
}

// UserRoutine is a submitted analysis.
type UserRoutine struct {
	Name     string // becomes the request/ANA type, e.g. "hardness-ratio"
	Author   string
	Describe string
	Fn       func(ctx context.Context, photons []fits.Photon, params analysis.Params) (*UserResult, error)
}

// routineName is the IDL-server routine id for a user routine.
func (u *UserRoutine) routineName() string { return "user_" + u.Name }

// idlRoutine wraps Fn into the interpreter contract.
func (u *UserRoutine) idlRoutine() idl.Routine {
	return func(ctx context.Context, args idl.Args) (idl.Args, error) {
		params, _ := args["params"].(analysis.Params)
		photons, _ := args["photons"].([]fits.Photon)
		res, err := u.Fn(ctx, photons, params)
		if err != nil {
			return nil, err
		}
		return idl.Args{"user_result": res}, nil
	}
}

// UserStrategy adapts a UserRoutine to the 4-phase request model.
type UserStrategy struct {
	dm      *dm.DM
	routine *UserRoutine
}

var _ Strategy = (*UserStrategy)(nil)

// InstallUserRoutine registers the routine on every manager's servers
// and returns the strategy to register on a frontend. New interpreters
// added later need the routine too — pass it in their routine set.
func InstallUserRoutine(d *dm.DM, dir *Directory, u *UserRoutine) (*UserStrategy, error) {
	if u.Name == "" || u.Fn == nil {
		return nil, fmt.Errorf("pl: user routine needs a name and a function")
	}
	switch u.Name {
	case schema.AnaImaging, schema.AnaLightcurve, schema.AnaSpectrogram, schema.AnaHistogram:
		return nil, fmt.Errorf("pl: user routine %q shadows a built-in analysis", u.Name)
	}
	for _, info := range dir.Managers() {
		info.Manager().RegisterRoutine(u.routineName(), u.idlRoutine())
	}
	return &UserStrategy{dm: d, routine: u}, nil
}

// Type implements Strategy.
func (s *UserStrategy) Type() string { return s.routine.Name }

// Estimate implements Strategy with a flat linear predictor — the system
// knows nothing about a fresh routine's complexity yet.
func (s *UserStrategy) Estimate(req *Request) (*Estimate, error) {
	tstart, ok1 := floatParam(req, "tstart")
	tstop, ok2 := floatParam(req, "tstop")
	if !ok1 || !ok2 || tstop <= tstart {
		return nil, fmt.Errorf("pl: user routine request needs tstart < tstop")
	}
	units, err := s.dm.UnitsInRange(tstart, tstop)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return &Estimate{Feasible: false, Reason: "no raw data in the requested window"}, nil
	}
	var photons float64
	for _, u := range units {
		photons += float64(u.Photons)
	}
	return &Estimate{
		Seconds:  photons * 1e-6,
		Plan:     fmt.Sprintf("user routine %s by %s over %d units", s.routine.Name, s.routine.Author, len(units)),
		Feasible: true,
	}, nil
}

// Prepare implements Strategy.
func (s *UserStrategy) Prepare(req *Request) (string, idl.Args, error) {
	tstart, _ := floatParam(req, "tstart")
	tstop, _ := floatParam(req, "tstop")
	photons, bytesRead, err := s.dm.RawPhotons(req.Session, tstart, tstop)
	if err != nil {
		return "", nil, err
	}
	p := analysis.Params{Type: schema.AnaHistogram, TStart: tstart, TStop: tstop}
	if err := fillEnergyWindow(req, &p); err != nil {
		return "", nil, err
	}
	return s.routine.routineName(), idl.Args{
		"params": p, "photons": photons, "input_bytes": bytesRead,
	}, nil
}

// Deliver implements Strategy.
func (s *UserStrategy) Deliver(req *Request, out idl.Args) (*Delivery, error) {
	res, ok := out["user_result"].(*UserResult)
	if !ok {
		return nil, fmt.Errorf("pl: user routine %s returned no result", s.routine.Name)
	}
	gif := res.GIF
	if gif == nil && len(res.Series) > 0 {
		var err error
		gif, err = analysis.RenderSeries(res.Series)
		if err != nil {
			return nil, err
		}
	}
	logText := ""
	for _, l := range res.LogLines {
		logText += l + "\n"
	}
	files := []dm.StoredFile{
		{Suffix: ".log", Format: "log", Data: []byte(logText)},
		{Suffix: ".params", Format: "params", Data: []byte(fmt.Sprintf("user routine %s\n", s.routine.Name))},
	}
	if gif != nil {
		files = append([]dm.StoredFile{{Suffix: ".gif", Format: "gif", Data: gif}}, files...)
	}
	return &Delivery{Files: files, Result: idl.Args{"user_result": res}}, nil
}

// Commit implements Strategy.
func (s *UserStrategy) Commit(req *Request, del *Delivery) (string, error) {
	res := del.Result["user_result"].(*UserResult)
	hleID, _ := req.Params["hle_id"].(string)
	if hleID == "" {
		return "", fmt.Errorf("pl: commit requires hle_id")
	}
	tstart, _ := floatParam(req, "tstart")
	tstop, _ := floatParam(req, "tstop")
	ana := &schema.ANA{
		HLEID: hleID, Type: s.routine.Name,
		Algorithm: "user:" + s.routine.Author,
		Version:   1, Status: schema.AnaCommitted,
		TStart: tstart, TStop: tstop,
		ApproxFrac: 1, CalibVersion: 1,
		Comment: s.routine.Describe,
	}
	var total float64
	for _, v := range res.Series {
		total += v
	}
	ana.ResultTotal = total
	if v, ok := res.Scalars["peak"]; ok {
		ana.PeakValue = v
	}
	return s.dm.ImportAnalysis(req.Session, ana, del.Files)
}

func floatParam(req *Request, key string) (float64, bool) {
	switch v := req.Params[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

func fillEnergyWindow(req *Request, p *analysis.Params) error {
	if v, ok := floatParam(req, "emin"); ok {
		p.EMin = v
	}
	if v, ok := floatParam(req, "emax"); ok {
		p.EMax = v
	}
	return nil
}
