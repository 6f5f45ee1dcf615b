package wavelet

import (
	"math"

	"repro/internal/fits"
)

// View is a wavelet-compressed, range-partitioned view over a photon
// stream: a (time × energy) count matrix for one partition of the data.
// Views are built when raw data is loaded ("pre-processing the data when it
// is loaded into the system to construct wavelet compressed range
// partitioned views over the raw data", §3.4) and are what approximated
// analyses and the StreamCorder's density/extent plots consume.
type View struct {
	TStart, TStop float64 // time range covered [s]
	EMin, EMax    float64 // energy range covered [keV], log-partitioned
	TimeBins      int
	EnergyBins    int
	Total         int64 // photons counted into the view
	Enc           *Encoded
}

// BuildView bins photons within the given ranges into a TimeBins×EnergyBins
// matrix (energy axis logarithmic, matching the instrument's decades of
// range) and wavelet-compresses it, keeping the given coefficient fraction.
func BuildView(photons []fits.Photon, tstart, tstop, emin, emax float64, timeBins, energyBins int, keep float64) *View {
	g := newGrid(tstart, tstop, emin, emax, timeBins, energyBins)
	for _, p := range photons {
		g.add(p)
	}
	return g.view(keep)
}

// grid is a view's count matrix while photons are binned into it.
type grid struct {
	v            *View
	rows         [][]float64
	logLo, logHi float64
}

func newGrid(tstart, tstop, emin, emax float64, timeBins, energyBins int) *grid {
	if timeBins < 1 {
		timeBins = 1
	}
	if energyBins < 1 {
		energyBins = 1
	}
	g := &grid{
		v: &View{
			TStart: tstart, TStop: tstop, EMin: emin, EMax: emax,
			TimeBins: timeBins, EnergyBins: energyBins,
		},
		rows:  make([][]float64, energyBins),
		logLo: math.Log(emin), logHi: math.Log(emax),
	}
	for i := range g.rows {
		g.rows[i] = make([]float64, timeBins)
	}
	return g
}

// add counts p if it falls within the grid's time and energy ranges.
func (g *grid) add(p fits.Photon) {
	v := g.v
	if p.Time < v.TStart || p.Time >= v.TStop || p.Energy < v.EMin || p.Energy >= v.EMax {
		return
	}
	tb := int(float64(v.TimeBins) * (p.Time - v.TStart) / (v.TStop - v.TStart))
	if tb >= v.TimeBins {
		tb = v.TimeBins - 1
	}
	eb := int(float64(v.EnergyBins) * (math.Log(p.Energy) - g.logLo) / (g.logHi - g.logLo))
	if eb >= v.EnergyBins {
		eb = v.EnergyBins - 1
	}
	if eb < 0 {
		eb = 0
	}
	g.rows[eb][tb]++
	v.Total++
}

// view compresses the counts, keeping the given coefficient fraction.
func (g *grid) view(keep float64) *View {
	g.v.Enc = Encode2D(g.rows, keep)
	return g.v
}

// Counts reconstructs the (approximated) count matrix from the first frac
// of the coefficient stream. Negative reconstruction artifacts are clamped
// to zero — counts cannot be negative.
func (v *View) Counts(frac float64) [][]float64 {
	rows := v.Enc.Decode2D(frac)
	for _, r := range rows {
		for i, x := range r {
			if x < 0 {
				r[i] = 0
			}
		}
	}
	return rows
}

// Lightcurve reconstructs the approximated time profile (counts per time
// bin summed over energies) from the first frac of the coefficients.
func (v *View) Lightcurve(frac float64) []float64 {
	rows := v.Counts(frac)
	out := make([]float64, v.TimeBins)
	for _, r := range rows {
		for i, x := range r {
			out[i] += x
		}
	}
	return out
}

// PartitionViews splits [tstart, tstop) into nParts consecutive views, the
// "range partitioned" arrangement of §6.3: partitions are independently
// compressed so a client fetches only the ranges it explores. It makes one
// pass over the photons and counts each one exactly where BuildView over
// each partition's range would, including a photon on a boundary that the
// rounded bounds of two neighbouring partitions both (or neither) accept.
func PartitionViews(photons []fits.Photon, tstart, tstop, emin, emax float64, nParts, timeBins, energyBins int, keep float64) []*View {
	if nParts < 1 {
		nParts = 1
	}
	grids := make([]*grid, nParts)
	step := (tstop - tstart) / float64(nParts)
	for i := range grids {
		lo := tstart + float64(i)*step
		hi := lo + step
		if i == nParts-1 {
			hi = tstop
		}
		grids[i] = newGrid(lo, hi, emin, emax, timeBins, energyBins)
	}
	// With step > 0 the lower bounds rise with the index: k, carried from
	// photon to photon (time-sorted photons only move it forward), is the
	// last partition starting at or before p. Below k the upper bounds (all
	// but the last, which is tstop) fall too, so the partitions that accept
	// p are k and the run just below it that ends after p. Otherwise no
	// partition but the last can accept p: start there and let add decide.
	last := nParts - 1
	k := last
	for _, p := range photons {
		if step > 0 {
			for k > 0 && p.Time < grids[k].v.TStart {
				k--
			}
			for k < last && p.Time >= grids[k+1].v.TStart {
				k++
			}
		}
		for j := k; j >= 0; j-- {
			if j < last && p.Time >= grids[j].v.TStop {
				break
			}
			grids[j].add(p)
		}
	}
	views := make([]*View, nParts)
	for i, g := range grids {
		views[i] = g.view(keep)
	}
	return views
}
