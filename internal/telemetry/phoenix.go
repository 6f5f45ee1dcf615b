package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Phoenix-2 — the second data source. Besides RHESSI, HEDC serves "around
// 25 GB of measurements taken by the Phoenix-2 Broadband Spectrometer in
// Bleien, Switzerland ... The Phoenix catalog contains spectrograms for
// around 3000 identified solar events and is part of the extended catalog"
// (§2.2). Phoenix data is nothing like photon lists: it is a radio
// frequency-time power spectrogram in its own file format. Absorbing it
// exercises the §3.1 claim that HEDC accommodates "new raw data formats and
// new data sources (different RHESSI instruments and other sensors all
// together)".

// PhoenixBurst is one ground-truth radio burst in a spectrogram.
type PhoenixBurst struct {
	TStart    float64 // seconds since mission epoch
	TStop     float64
	FreqLoMHz float64
	FreqHiMHz float64
	Peak      float64 // power, arbitrary units above background
}

// PhoenixSpectrogram is one observation file from the spectrometer.
type PhoenixSpectrogram struct {
	Day      int
	Seq      int
	TStart   float64
	TStop    float64
	FreqMin  float64 // MHz
	FreqMax  float64
	TimeBins int
	FreqBins int
	Power    [][]float64 // [FreqBins][TimeBins], arbitrary units
	Bursts   []PhoenixBurst
}

// Name returns the canonical file stem, e.g. "phx_0042_003".
func (p *PhoenixSpectrogram) Name() string { return fmt.Sprintf("phx_%04d_%03d", p.Day, p.Seq) }

// phoenixLength is the seconds one spectrogram covers.
const phoenixLength = 3600

// PhoenixConfig parameterizes generation.
type PhoenixConfig struct {
	Seed     int64
	TimeBins int // 0 = 256
	FreqBins int // 0 = 64
	Bursts   int // radio bursts to inject (-1 = Poisson mean 2)
}

// GeneratePhoenix produces one synthetic spectrogram for a mission day.
func GeneratePhoenix(day, seq int, cfg PhoenixConfig) *PhoenixSpectrogram {
	if cfg.TimeBins <= 0 {
		cfg.TimeBins = 256
	}
	if cfg.FreqBins <= 0 {
		cfg.FreqBins = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(day)*104729 + int64(seq)))
	p := &PhoenixSpectrogram{
		Day: day, Seq: seq,
		TStart: float64(seq) * phoenixLength, TStop: float64(seq+1) * phoenixLength,
		FreqMin: 100, FreqMax: 4000, // the instrument's 0.1-4 GHz band
		TimeBins: cfg.TimeBins, FreqBins: cfg.FreqBins,
	}
	p.Power = make([][]float64, p.FreqBins)
	for f := range p.Power {
		p.Power[f] = make([]float64, p.TimeBins)
		for t := range p.Power[f] {
			p.Power[f][t] = 10 + rng.Float64()*2 // receiver background
		}
	}
	nBursts := cfg.Bursts
	if nBursts < 0 {
		nBursts = poisson(rng, 2)
	}
	dt := phoenixLength / float64(p.TimeBins)
	for i := 0; i < nBursts; i++ {
		t0 := rng.Intn(p.TimeBins * 3 / 4)
		dur := 4 + rng.Intn(p.TimeBins/8)
		f0 := rng.Intn(p.FreqBins / 2)
		fspan := 4 + rng.Intn(p.FreqBins/2)
		peak := 50 + rng.Float64()*150
		for t := t0; t < t0+dur && t < p.TimeBins; t++ {
			// Type-III-like drift: the burst sweeps downward in frequency.
			drift := (t - t0) * fspan / (dur + 1)
			for f := f0 + drift; f < f0+drift+fspan/2 && f < p.FreqBins; f++ {
				decay := math.Exp(-float64(t-t0) / float64(dur))
				p.Power[f][t] += peak * decay
			}
		}
		p.Bursts = append(p.Bursts, PhoenixBurst{
			TStart:    p.TStart + float64(t0)*dt,
			TStop:     p.TStart + float64(t0+dur)*dt,
			FreqLoMHz: p.FreqMin + float64(f0)/float64(p.FreqBins)*(p.FreqMax-p.FreqMin),
			FreqHiMHz: p.FreqMin + float64(f0+fspan)/float64(p.FreqBins)*(p.FreqMax-p.FreqMin),
			Peak:      peak,
		})
	}
	return p
}

// The PHX2 container: a deliberately different format from FITS, as the
// real Phoenix files were. Layout: magic, header ints/floats, then the
// power matrix as float32, little endian.
const phoenixMagic = "PHX2"

// Encode serializes the spectrogram.
func (p *PhoenixSpectrogram) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(phoenixMagic)
	for _, v := range []int32{int32(p.Day), int32(p.Seq), int32(p.TimeBins), int32(p.FreqBins)} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	for _, v := range []float64{p.TStart, p.TStop, p.FreqMin, p.FreqMax} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	for _, row := range p.Power {
		for _, v := range row {
			binary.Write(&b, binary.LittleEndian, float32(v))
		}
	}
	return b.Bytes()
}

// ParsePhoenix deserializes a PHX2 file (ground-truth bursts are not part
// of the wire format — they are what detection has to find).
func ParsePhoenix(data []byte) (*PhoenixSpectrogram, error) {
	if len(data) < 4 || string(data[:4]) != phoenixMagic {
		return nil, fmt.Errorf("telemetry: not a PHX2 file")
	}
	r := bytes.NewReader(data[4:])
	var ints [4]int32
	for i := range ints {
		if err := binary.Read(r, binary.LittleEndian, &ints[i]); err != nil {
			return nil, fmt.Errorf("telemetry: truncated PHX2 header: %w", err)
		}
	}
	var floats [4]float64
	for i := range floats {
		if err := binary.Read(r, binary.LittleEndian, &floats[i]); err != nil {
			return nil, fmt.Errorf("telemetry: truncated PHX2 header: %w", err)
		}
	}
	p := &PhoenixSpectrogram{
		Day: int(ints[0]), Seq: int(ints[1]), TimeBins: int(ints[2]), FreqBins: int(ints[3]),
		TStart: floats[0], TStop: floats[1], FreqMin: floats[2], FreqMax: floats[3],
	}
	if p.TimeBins <= 0 || p.FreqBins <= 0 || p.TimeBins > 1<<16 || p.FreqBins > 1<<16 {
		return nil, fmt.Errorf("telemetry: implausible PHX2 dimensions %dx%d", p.FreqBins, p.TimeBins)
	}
	p.Power = make([][]float64, p.FreqBins)
	for f := range p.Power {
		p.Power[f] = make([]float64, p.TimeBins)
		for t := range p.Power[f] {
			var v float32
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return nil, fmt.Errorf("telemetry: truncated PHX2 matrix: %w", err)
			}
			p.Power[f][t] = float64(v)
		}
	}
	return p, nil
}

// DetectRadioBursts scans a spectrogram for intervals whose band-summed
// power rises well above the receiver background.
func DetectRadioBursts(p *PhoenixSpectrogram, sigma float64) []PhoenixBurst {
	if sigma <= 0 {
		sigma = 5
	}
	// Band-summed lightcurve.
	sum := make([]float64, p.TimeBins)
	for _, row := range p.Power {
		for t, v := range row {
			sum[t] += v
		}
	}
	// Robust background from the median.
	med := medianFloat(sum)
	var dev float64
	for _, v := range sum {
		dev += math.Abs(v - med)
	}
	dev /= float64(len(sum))
	if dev == 0 {
		dev = 1
	}
	threshold := med + sigma*dev

	dt := (p.TStop - p.TStart) / float64(p.TimeBins)
	var out []PhoenixBurst
	t := 0
	for t < p.TimeBins {
		if sum[t] <= threshold {
			t++
			continue
		}
		start := t
		peak := 0.0
		for t < p.TimeBins && sum[t] > med+dev {
			if sum[t]-med > peak {
				peak = sum[t] - med
			}
			t++
		}
		out = append(out, PhoenixBurst{
			TStart:    p.TStart + float64(start)*dt,
			TStop:     p.TStart + float64(t)*dt,
			FreqLoMHz: p.FreqMin,
			FreqHiMHz: p.FreqMax,
			Peak:      peak,
		})
	}
	return out
}

func medianFloat(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if len(cp) == 0 {
		return 0
	}
	return cp[len(cp)/2]
}
