package analysis

import (
	"math"

	"repro/internal/fits"
)

// Event detection: when raw data units reach HEDC "they are once more
// searched for interesting events, using programs that detect a wider range
// of events such as solar flares, gamma ray bursts, or quiet periods"
// (§2.2). Detection runs over the count stream, estimates a robust
// background, and flags contiguous excursions; the kind hint is heuristic —
// HEDC stores events, not types (§3.3).

// Detection is one flagged observation interval.
type Detection struct {
	TStart       float64
	TStop        float64
	PeakRate     float64 // photons/s at the brightest bin
	Background   float64 // photons/s baseline
	TotalCounts  int64
	Significance float64 // sigma above background at peak
	MeanEnergy   float64 // keV, for the kind hint
	KindHint     string  // "flare" | "gamma-ray-burst" | "quiet-period"
}

// The detector's fixed tuning.
const (
	binSeconds = 10  // counting bin
	sigmaCut   = 4   // detection threshold in sigma
	quietFrac  = 0.3 // rate below quietFrac*background flags quiet periods
)

// DetectConfig is empty: the detector's tuning is fixed. It stays in
// DetectEvents' signature so existing callers compile unchanged.
type DetectConfig struct{}

// DetectEvents scans [tstart, tstop) of the photon stream.
func DetectEvents(photons []fits.Photon, tstart, tstop float64, _ DetectConfig) []Detection {
	nBins := int(math.Ceil((tstop - tstart) / binSeconds))
	if nBins < 1 {
		return nil
	}
	counts := make([]float64, nBins)
	energy := make([]float64, nBins)
	for _, p := range photons {
		if p.Time < tstart || p.Time >= tstop {
			continue
		}
		b := int((p.Time - tstart) / binSeconds)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
		energy[b] += p.Energy
	}

	bg := medianOf(counts) // robust against flares inflating the baseline
	sigma := math.Sqrt(bg)
	if sigma == 0 {
		sigma = 1
	}
	threshold := bg + sigmaCut*sigma

	var out []Detection
	i := 0
	for i < nBins {
		switch {
		case counts[i] > threshold:
			j := i
			for j < nBins && counts[j] > bg+sigma { // extend to ~1-sigma edges
				j++
			}
			out = append(out, summarizeDetection(counts, energy, i, j, tstart, bg, sigma, false))
			i = j
		case bg > 1 && counts[i] < quietFrac*bg:
			j := i
			for j < nBins && counts[j] < quietFrac*bg {
				j++
			}
			// Only long lulls count as quiet periods (SAA transits, pointing
			// gaps); single low bins are Poisson noise.
			if float64(j-i)*binSeconds >= 60 {
				out = append(out, summarizeDetection(counts, energy, i, j, tstart, bg, sigma, true))
			}
			i = j
		default:
			i++
		}
	}
	return out
}

func summarizeDetection(counts, energy []float64, i, j int, tstart, bg, sigma float64, quiet bool) Detection {
	d := Detection{
		TStart:     tstart + float64(i)*binSeconds,
		TStop:      tstart + float64(j)*binSeconds,
		Background: bg / binSeconds,
	}
	var total, esum float64
	peak := 0.0
	for k := i; k < j; k++ {
		total += counts[k]
		esum += energy[k]
		if counts[k] > peak {
			peak = counts[k]
		}
	}
	d.TotalCounts = int64(total)
	d.PeakRate = peak / binSeconds
	d.Significance = (peak - bg) / sigma
	if total > 0 {
		d.MeanEnergy = esum / total
	}
	switch {
	case quiet:
		d.KindHint = "quiet-period"
		d.Significance = (bg - peak) / sigma
	case d.TStop-d.TStart <= 90 && d.MeanEnergy > 100:
		// Short and spectrally hard: likely a non-solar gamma-ray burst.
		d.KindHint = "gamma-ray-burst"
	default:
		d.KindHint = "flare"
	}
	return d
}

// medianOf returns the median of xs (0 for empty input).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	// Insertion-free selection: simple sort is fine at detector bin counts.
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// FitPowerLaw estimates the photon spectral index gamma of dN/dE ~ E^-gamma
// by maximum likelihood over [emin, emax] (the standard astrophysics
// estimator). Spectroscopy is one of HEDC's three standard analyses (§2.2);
// the fitted index is what distinguishes hard non-solar bursts from soft
// thermal flares.
func FitPowerLaw(photons []fits.Photon, emin, emax float64) (gamma float64, n int) {
	if emin <= 0 || emax <= emin {
		return 0, 0
	}
	var sumLog float64
	for _, p := range photons {
		if p.Energy < emin || p.Energy > emax {
			continue
		}
		sumLog += math.Log(p.Energy / emin)
		n++
	}
	if n == 0 || sumLog == 0 {
		return 0, n
	}
	// MLE for a bounded power law reduces to the unbounded form when
	// emax >> emin; solve the unbounded estimator and refine one Newton
	// step for the truncation correction.
	gamma = 1 + float64(n)/sumLog
	r := emax / emin
	for i := 0; i < 20; i++ {
		a := gamma - 1
		// d/dgamma log L with truncation term.
		la := math.Pow(r, -a)
		f := float64(n)/a - sumLog - float64(n)*math.Log(r)*la/(1-la)
		df := -float64(n)/(a*a) - float64(n)*math.Log(r)*math.Log(r)*la/((1-la)*(1-la))
		if df == 0 {
			break
		}
		step := f / df
		gamma -= step
		if math.Abs(step) < 1e-10 {
			break
		}
	}
	return gamma, n
}
