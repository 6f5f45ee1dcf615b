package wavelet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fits"
	"repro/internal/telemetry"
)

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// maxRelDiff returns the largest |a-b| / (|a|+1) — coefficients are stored
// as float32, so reconstruction is exact only up to float32 precision.
func maxRelDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / (math.Abs(a[i]) + 1)
		if d > m {
			m = d
		}
	}
	return m
}

func TestPerfectReconstruction1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 100, 256, 1000} {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64() * 100
		}
		enc := encode1D(data, 1)
		got := decode1D(enc, 1)
		if len(got) != n {
			t.Fatalf("n=%d: decoded length %d", n, len(got))
		}
		if d := maxRelDiff(data, got); d > 1e-4 {
			t.Fatalf("n=%d: max reconstruction error %v", n, d)
		}
	}
}

func TestPerfectReconstruction2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {17, 9}, {64, 32}} {
		h, w := dims[0], dims[1]
		rows := make([][]float64, h)
		for y := range rows {
			rows[y] = make([]float64, w)
			for x := range rows[y] {
				rows[y][x] = rng.NormFloat64() * 10
			}
		}
		enc := Encode2D(rows, 1)
		got := enc.Decode2D(1)
		if len(got) != h || len(got[0]) != w {
			t.Fatalf("%dx%d: decoded %dx%d", h, w, len(got), len(got[0]))
		}
		for y := range rows {
			if d := maxRelDiff(rows[y], got[y]); d > 1e-4 {
				t.Fatalf("%dx%d: row %d error %v", h, w, y, d)
			}
		}
	}
}

func TestOrthonormalityPreservesEnergy(t *testing.T) {
	// Parseval: sum of squares is invariant under the transform.
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 128)
	var inputEnergy float64
	for i := range data {
		data[i] = rng.NormFloat64()
		inputEnergy += data[i] * data[i]
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	forward1D(buf)
	var coefEnergy float64
	for _, v := range buf {
		coefEnergy += v * v
	}
	if math.Abs(inputEnergy-coefEnergy) > 1e-9 {
		t.Fatalf("energy not preserved: %v vs %v", inputEnergy, coefEnergy)
	}
}

func TestTruncationErrorBounded(t *testing.T) {
	// Keeping the top coefficients bounds L2 error by the energy of the
	// dropped ones (Parseval), and the progressive prefix property means
	// more coefficients never increase error.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 512)
	for i := range data {
		// Smooth signal plus noise: compressible.
		data[i] = 50*math.Sin(float64(i)/20) + rng.NormFloat64()
	}
	enc := encode1D(data, 1)
	var prevErr float64 = math.Inf(1)
	for _, frac := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		rec := decode1D(enc, frac)
		var errEnergy float64
		for i := range data {
			d := data[i] - rec[i]
			errEnergy += d * d
		}
		if errEnergy > prevErr+1e-9 {
			t.Fatalf("error grew from %v to %v at frac %v", prevErr, errEnergy, frac)
		}
		prevErr = errEnergy
	}
	if prevErr > 1e-4 { // float32 coefficient storage bounds exactness
		t.Fatalf("full reconstruction error %v", prevErr)
	}
}

func TestKeepFractionReducesSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 1024)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	full := encode1D(data, 1)
	tenth := encode1D(data, 0.1)
	if len(tenth.Coeffs)*9 > len(full.Coeffs) {
		t.Fatalf("keep=0.1 retained %d of %d coefficients", len(tenth.Coeffs), len(full.Coeffs))
	}
	if tenth.CompressedSize() >= full.CompressedSize() {
		t.Fatal("compressed size did not shrink")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := make([]float64, 300)
	for i := range data {
		data[i] = rng.NormFloat64() * 7
	}
	enc := encode1D(data, 0.5)
	parsed, err := Parse(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.W != enc.W || parsed.OrigW != enc.OrigW || len(parsed.Coeffs) != len(enc.Coeffs) {
		t.Fatalf("header mismatch: %+v vs %+v", parsed, enc)
	}
	a, b := decode1D(enc, 1), decode1D(parsed, 1)
	if maxAbsDiff(a, b) != 0 {
		t.Fatal("decoded data differs after serialization")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Parse([]byte("WRONGMAGIC")); err == nil {
		t.Fatal("bad magic accepted")
	}
	enc := encode1D([]float64{1, 2, 3}, 1)
	raw := enc.Bytes()
	if _, err := Parse(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// Property: 1D round trip is exact for arbitrary data (full keep).
func TestQuickPerfectReconstruction(t *testing.T) {
	check := func(data []float64) bool {
		for i, v := range data {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
				data[i] = 0
			}
			// float32 coefficient storage: quantize the input so exactness
			// is well-defined.
			data[i] = float64(float32(data[i]))
		}
		if len(data) == 0 {
			return true
		}
		rec := decode1D(encode1D(data, 1), 1)
		for i := range data {
			// float32 storage loses precision; allow relative tolerance.
			tol := 1e-4 * (math.Abs(data[i]) + 1)
			if math.Abs(rec[i]-data[i]) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func testPhotons() []fits.Photon {
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 11, DayLength: 3600, BackgroundRate: 10, Flares: 2, Bursts: 0,
	})
	return day.Photons
}

func TestBuildViewCountsPhotons(t *testing.T) {
	photons := testPhotons()
	v := BuildView(photons, 0, 3600, 3, 20000, 64, 16, 1)
	if v.Total != int64(len(photons)) {
		t.Fatalf("view counted %d of %d photons", v.Total, len(photons))
	}
	counts := v.Counts(1)
	var sum float64
	for _, r := range counts {
		for _, x := range r {
			sum += x
		}
	}
	if math.Abs(sum-float64(v.Total)) > float64(v.Total)/100 {
		t.Fatalf("reconstructed total %v, want ~%d", sum, v.Total)
	}
}

func TestViewLightcurveFindsFlare(t *testing.T) {
	day := telemetry.GenerateDay(1, telemetry.Config{
		Seed: 21, DayLength: 3600, BackgroundRate: 2, Flares: 1, Bursts: 0,
	})
	var flare telemetry.Event
	for _, e := range day.Events {
		if e.Kind == telemetry.Flare {
			flare = e
		}
	}
	v := BuildView(day.Photons, 0, 3600, 3, 20000, 128, 8, 1)
	lc := v.Lightcurve(1)
	// The brightest bin should fall inside the flare.
	best, bestVal := 0, 0.0
	for i, x := range lc {
		if x > bestVal {
			best, bestVal = i, x
		}
	}
	tPeak := float64(best) / 128 * 3600
	if tPeak < flare.Start-60 || tPeak > flare.End()+60 {
		t.Fatalf("lightcurve peak at %.0fs, flare spans %.0f..%.0fs", tPeak, flare.Start, flare.End())
	}
}

func TestApproximateLightcurvePreservesShape(t *testing.T) {
	photons := testPhotons()
	v := BuildView(photons, 0, 3600, 3, 20000, 128, 8, 1)
	full := v.Lightcurve(1)
	approx := v.Lightcurve(0.1)
	// Correlation between full and approximated curves should be high.
	corr := correlation(full, approx)
	if corr < 0.8 {
		t.Fatalf("approximation correlation %v too low", corr)
	}
}

func correlation(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestPartitionViewsCoverWithoutOverlap(t *testing.T) {
	photons := testPhotons()
	views := PartitionViews(photons, 0, 3600, 3, 20000, 6, 32, 8, 1)
	if len(views) != 6 {
		t.Fatalf("views = %d", len(views))
	}
	var total int64
	for i, v := range views {
		if i > 0 && v.TStart != views[i-1].TStop {
			t.Fatalf("gap between partition %d and %d", i-1, i)
		}
		total += v.Total
	}
	if total != int64(len(photons)) {
		t.Fatalf("partitions counted %d of %d photons", total, len(photons))
	}
}

// partitionOracle is PartitionViews as one BuildView per partition, each
// scanning every photon.
func partitionOracle(photons []fits.Photon, tstart, tstop, emin, emax float64, nParts, timeBins, energyBins int, keep float64) []*View {
	if nParts < 1 {
		nParts = 1
	}
	var views []*View
	step := (tstop - tstart) / float64(nParts)
	for i := 0; i < nParts; i++ {
		lo := tstart + float64(i)*step
		hi := lo + step
		if i == nParts-1 {
			hi = tstop
		}
		views = append(views, BuildView(photons, lo, hi, emin, emax, timeBins, energyBins, keep))
	}
	return views
}

// Property: the one-pass PartitionViews builds bit-identical views to a
// BuildView per partition, for unsorted photons drawn on, next to and
// between the partition bounds, whose rounded ends need not meet.
func TestPartitionViewsMatchPerPartitionOracle(t *testing.T) {
	ranges := [][2]float64{
		{0, 3600}, {0.1, 0.7}, {1e5 + 0.3, 1e5 + 600.7}, {-7.3, 11.9},
		{86399.99, 86400 + 1.0/3}, {5, 5}, {9, 2},
	}
	seams := 0 // boundaries where lo+step and the next lo differ
	rng := rand.New(rand.NewSource(11))
	for _, r := range ranges {
		tstart, tstop := r[0], r[1]
		for _, nParts := range []int{0, 1, 2, 3, 4, 6, 7} {
			n := max(nParts, 1)
			step := (tstop - tstart) / float64(n)
			var edges []float64
			for i := 0; i <= n; i++ {
				lo := tstart + float64(i)*step
				edges = append(edges, lo, lo+step)
				if i > 0 && i < n && tstart+float64(i-1)*step+step != lo {
					seams++
				}
			}
			edges = append(edges, tstop)
			for _, size := range []int{0, 1, 50, 2000} {
				photons := make([]fits.Photon, size)
				for i := range photons {
					p := &photons[i]
					switch rng.Intn(4) {
					case 0:
						p.Time = tstart + (rng.Float64()*1.2-0.1)*(tstop-tstart)
					case 1:
						p.Time = edges[rng.Intn(len(edges))]
					default:
						e := edges[rng.Intn(len(edges))]
						p.Time = math.Nextafter(e, math.Inf(2*rng.Intn(2)-1))
					}
					switch rng.Intn(8) {
					case 0:
						p.Energy = 3
					case 1:
						p.Energy = 20000
					default:
						p.Energy = 1.5 * math.Pow(20000/1.5*2, rng.Float64())
					}
					p.Detector = uint8(rng.Intn(9))
				}
				got := PartitionViews(photons, tstart, tstop, 3, 20000, nParts, 16, 8, 0.5)
				want := partitionOracle(photons, tstart, tstop, 3, 20000, nParts, 16, 8, 0.5)
				if len(got) != len(want) {
					t.Fatalf("[%v,%v)/%d: %d views, want %d", tstart, tstop, nParts, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.TStart != w.TStart || g.TStop != w.TStop || g.Total != w.Total ||
						!bytes.Equal(g.Enc.Bytes(), w.Enc.Bytes()) {
						t.Fatalf("[%v,%v)/%d, %d photons: view %d counts %d, want %d (or its encoding differs)",
							tstart, tstop, nParts, size, i, g.Total, w.Total)
					}
				}
			}
		}
	}
	if seams == 0 {
		t.Fatal("no range has partition bounds that fail to meet; the boundary case is untested")
	}
}

func TestViewCompressionWins(t *testing.T) {
	// A realistic photon stream view at keep=0.05 should be much smaller
	// than the raw photon records it summarizes.
	photons := testPhotons()
	v := BuildView(photons, 0, 3600, 3, 20000, 256, 16, 0.05)
	rawSize := len(photons) * 18
	if v.Enc.CompressedSize() >= rawSize/10 {
		t.Fatalf("view %d bytes vs raw %d bytes: less than 10x win", v.Enc.CompressedSize(), rawSize)
	}
}

// Property: 2-D encode/decode round-trips arbitrary matrices within
// float32 precision.
func TestQuick2DRoundTrip(t *testing.T) {
	check := func(flat []float64, wRaw uint8) bool {
		w := int(wRaw%16) + 1
		if len(flat) == 0 {
			return true
		}
		for i, v := range flat {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				flat[i] = 0
			}
			flat[i] = float64(float32(flat[i]))
		}
		h := (len(flat) + w - 1) / w
		rows := make([][]float64, h)
		for y := range rows {
			lo := y * w
			hi := lo + w
			if hi > len(flat) {
				hi = len(flat)
			}
			rows[y] = flat[lo:hi]
		}
		got := Encode2D(rows, 1).Decode2D(1)
		if len(got) != h {
			return false
		}
		for y := range rows {
			if len(got[y]) < len(rows[y]) {
				return false
			}
			for x := range rows[y] {
				tol := 1e-3 * (math.Abs(rows[y][x]) + 1)
				if math.Abs(got[y][x]-rows[y][x]) > tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

var viewsSink []*View

func BenchmarkPartitionViews(b *testing.B) {
	day := telemetry.GenerateDay(1, telemetry.Config{Seed: 3, DayLength: 14400, Flares: 6, Bursts: 1})
	units := telemetry.SegmentDay(day, 600)
	u := units[0]
	for _, x := range units {
		if len(x.Photons) > len(u.Photons) {
			u = x
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		viewsSink = PartitionViews(u.Photons, u.TStart, u.TStop, telemetry.EnergyMin, telemetry.EnergyMax, 4, 64, 16, 0.15)
	}
}

// encode1D compresses data, retaining the keep fraction (0..1] of the
// largest-magnitude coefficients (at least one if any are nonzero).
func encode1D(data []float64, keep float64) *Encoded {
	n := nextPow2(len(data))
	buf := make([]float64, n)
	copy(buf, data)
	forward1D(buf)
	return pack(buf, n, 1, len(data), 1, keep)
}

// decode1D reconstructs an approximation of one-dimensional data from the
// first frac (0..1] of the coefficient stream.
func decode1D(e *Encoded, frac float64) []float64 {
	buf := e.expand(frac)
	inverse1D(buf)
	return buf[:e.OrigW]
}
