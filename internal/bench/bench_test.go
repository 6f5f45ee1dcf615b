package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/schema"
)

// These tests pin the reproduced evaluation to the paper's shape: peak
// positions, degradation factors, saturation points and winners. Exact
// numbers live in EXPERIMENTS.md.

func TestFigure4Shape(t *testing.T) {
	pts := Figure4(DefaultBrowseParams(), nil)
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	// Peak at 16 clients, ~17 req/s (the DB ceiling: ~120 queries/s / 7).
	peak := pts[0]
	if peak.Clients != 16 {
		t.Fatalf("first point at %d clients", peak.Clients)
	}
	if peak.RequestsPerSec < 15 || peak.RequestsPerSec > 19 {
		t.Fatalf("peak throughput %.1f req/s, want ~17", peak.RequestsPerSec)
	}
	if peak.DBQueriesPS < 105 || peak.DBQueriesPS > 125 {
		t.Fatalf("peak DB load %.1f q/s, want ~120", peak.DBQueriesPS)
	}
	// Monotone degradation to ~3 req/s at 96 clients.
	for i := 1; i < len(pts); i++ {
		if pts[i].RequestsPerSec >= pts[i-1].RequestsPerSec {
			t.Fatalf("throughput not degrading at %d clients", pts[i].Clients)
		}
	}
	last := pts[len(pts)-1]
	if last.Clients != 96 || last.RequestsPerSec < 2 || last.RequestsPerSec > 4.5 {
		t.Fatalf("96-client throughput %.1f req/s, want ~3", last.RequestsPerSec)
	}
	// "roughly one complex Web request per second per client" at 16.
	if perClient := peak.RequestsPerSec / 16; perClient < 0.8 || perClient > 1.3 {
		t.Fatalf("per-client rate %.2f, want ~1", perClient)
	}
}

func TestFigure5Shape(t *testing.T) {
	pts := Figure5(DefaultBrowseParams(), nil)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Non-decreasing in nodes; 3 req/s at 1 node; saturates at the DB
	// ceiling (~17-18 req/s = ~120 queries/s) by 5 nodes.
	for i := 1; i < len(pts); i++ {
		if pts[i].RequestsPerSec+0.2 < pts[i-1].RequestsPerSec {
			t.Fatalf("throughput fell adding nodes: %v", pts)
		}
	}
	if pts[0].RequestsPerSec < 2 || pts[0].RequestsPerSec > 4.5 {
		t.Fatalf("1-node throughput %.1f, want ~3", pts[0].RequestsPerSec)
	}
	last := pts[len(pts)-1]
	if last.Nodes != 5 || last.RequestsPerSec < 15 || last.RequestsPerSec > 19 {
		t.Fatalf("5-node throughput %.1f, want ~17-18", last.RequestsPerSec)
	}
	if last.DBQueriesPS < 105 {
		t.Fatalf("5-node DB load %.1f q/s: scaling should saturate the DB", last.DBQueriesPS)
	}
	// The 5-node configuration is at least 5x the 1-node one (paper: 3->18).
	if last.RequestsPerSec < 5*pts[0].RequestsPerSec {
		t.Fatalf("scaling factor %.1f, want >= 5",
			last.RequestsPerSec/pts[0].RequestsPerSec)
	}
}

func closeTo(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*want
}

func TestTable1ImagingShape(t *testing.T) {
	pts := Table1(DefaultProcessingParams(), ImagingWorkload())
	byLabel := map[string]ProcPoint{}
	for _, p := range pts {
		byLabel[p.Config.Label] = p
	}
	s1, s2, c1, sc := byLabel["S/1"], byLabel["S/2"], byLabel["C/1"], byLabel["S+C/2+1"]

	// Paper: 6027 / 3117 / 2059 / 1380 s. Shape: each within 25%, strict
	// ordering, S/2 is ~half of S/1, S+C wins.
	if !closeTo(s1.DurationS, 6027, 0.25) {
		t.Fatalf("S/1 = %.0f s, paper 6027", s1.DurationS)
	}
	if !closeTo(s2.DurationS, 3117, 0.25) {
		t.Fatalf("S/2 = %.0f s, paper 3117", s2.DurationS)
	}
	if !closeTo(c1.DurationS, 2059, 0.25) {
		t.Fatalf("C/1 = %.0f s, paper 2059", c1.DurationS)
	}
	if !closeTo(sc.DurationS, 1380, 0.25) {
		t.Fatalf("S+C = %.0f s, paper 1380", sc.DurationS)
	}
	if !(sc.DurationS < c1.DurationS && c1.DurationS < s2.DurationS && s2.DurationS < s1.DurationS) {
		t.Fatal("configuration ordering broken")
	}
	if ratio := s1.DurationS / s2.DurationS; ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("S/1 over S/2 = %.2f, want ~2 (CPU-bound scaling)", ratio)
	}
	// CPU profile: the server is usr-dominated when it computes; the
	// client usr CPU is saturated for these long analyses (paper: 90%).
	if s2.UsrCPUServer < 0.9 {
		t.Fatalf("S/2 server usr CPU %.0f%%, want ~100%%", s2.UsrCPUServer*100)
	}
	if c1.UsrCPUClient < 0.7 {
		t.Fatalf("C/1 client usr CPU %.0f%%, want high (paper 90%%)", c1.UsrCPUClient*100)
	}
}

func TestTable1HistogramShape(t *testing.T) {
	pts := Table1(DefaultProcessingParams(), HistogramWorkload())
	byLabel := map[string]ProcPoint{}
	for _, p := range pts {
		byLabel[p.Config.Label] = p
	}
	s1, s2 := byLabel["S/1"], byLabel["S/2"]
	c1, cc, sc := byLabel["C/1"], byLabel["C/cached"], byLabel["S+C/2+1"]

	// Paper: 960 / 655 / 841 / 821 / 438 s.
	if !closeTo(s1.DurationS, 960, 0.25) {
		t.Fatalf("S/1 = %.0f s, paper 960", s1.DurationS)
	}
	if !closeTo(c1.DurationS, 841, 0.25) {
		t.Fatalf("C/1 = %.0f s, paper 841", c1.DurationS)
	}
	if !closeTo(sc.DurationS, 438, 0.25) {
		t.Fatalf("S+C = %.0f s, paper 438", sc.DurationS)
	}
	// "even for the data intensive histogram test, the cost of data
	// movement [is] relatively small": caching saves only a few percent.
	saving := (c1.DurationS - cc.DurationS) / c1.DurationS
	if saving < 0 || saving > 0.1 {
		t.Fatalf("cache saving %.1f%%, paper ~2%%", saving*100)
	}
	// S+C is the fastest configuration.
	for _, p := range pts {
		if p.Config.Label != "S+C/2+1" && p.DurationS <= sc.DurationS {
			t.Fatalf("%s (%.0f s) beat S+C (%.0f s)", p.Config.Label, p.DurationS, sc.DurationS)
		}
	}
	// §8.4: for short analyses the client CPU is NOT saturated.
	if c1.UsrCPUClient > 0.6 {
		t.Fatalf("C/1 client usr CPU %.0f%%, should be unsaturated (paper 29%%)", c1.UsrCPUClient*100)
	}
	// Imperfect S scaling for short analyses (paper: 960 -> 655, 1.47x).
	if ratio := s1.DurationS / s2.DurationS; ratio > 2.05 {
		t.Fatalf("S scaling %.2fx for short analyses, want < 2 (coordination overhead)", ratio)
	}
}

func TestTables2And3MatchPaper(t *testing.T) {
	c2 := WorkloadCharacteristics(ImagingWorkload())
	if c2.Requests != 100 || c2.Queries != 300 || c2.Edits != 200 {
		t.Fatalf("table 2 = %+v", c2)
	}
	if math.Abs(c2.InputMB-50) > 1 || math.Abs(c2.OutputMB-5.5) > 0.3 {
		t.Fatalf("table 2 volumes = %+v", c2)
	}
	c3 := WorkloadCharacteristics(HistogramWorkload())
	if c3.Requests != 150 || c3.Queries != 450 || c3.Edits != 300 {
		t.Fatalf("table 3 = %+v", c3)
	}
	if math.Abs(c3.InputMB-50) > 1 || math.Abs(c3.OutputMB-1.2) > 0.2 {
		t.Fatalf("table 3 volumes = %+v", c3)
	}
}

func TestTurnoverMatchesPaperArithmetic(t *testing.T) {
	pts := Table1(DefaultProcessingParams(), ImagingWorkload())
	for _, p := range pts {
		want := (p.InputMB + p.OutputMB) / 1024 / (p.DurationS / 86400)
		if math.Abs(p.TurnoverGBd-want) > 1e-9 {
			t.Fatalf("turnover arithmetic wrong: %v vs %v", p.TurnoverGBd, want)
		}
	}
}

func TestApproximatedAnalysisOrderOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := RunApprox(300_000, schema.AnaLightcurve, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 10 {
		t.Fatalf("holistic speedup %.1fx, paper claims >= 10x", r.Speedup)
	}
	if r.ViewBytes*10 > r.RawBytes {
		t.Fatalf("view not compact: %d vs %d raw", r.ViewBytes, r.RawBytes)
	}
}

func TestApproximatedImagingSpeedsUp(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := RunApproxImaging(60_000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 3 {
		t.Fatalf("imaging approx speedup %.1fx, want >= 3x", r.Speedup)
	}
}

func TestDeterministicExperiments(t *testing.T) {
	a := RunBrowse(DefaultBrowseParams(), 32, 1)
	b := RunBrowse(DefaultBrowseParams(), 32, 1)
	if a.RequestsPerSec != b.RequestsPerSec || a.MeanResponseS != b.MeanResponseS {
		t.Fatal("browse experiment not deterministic")
	}
	pa := RunProcessing(DefaultProcessingParams(), HistogramWorkload(), ProcConfig{Label: "S/2", ServerSlots: 2})
	pb := RunProcessing(DefaultProcessingParams(), HistogramWorkload(), ProcConfig{Label: "S/2", ServerSlots: 2})
	if pa.DurationS != pb.DurationS {
		t.Fatal("processing experiment not deterministic")
	}
}

func TestFormatters(t *testing.T) {
	pts := []BrowsePoint{{Clients: 16, Nodes: 1, RequestsPerSec: 17.1, DBQueriesPS: 120}}
	out := FormatBrowse("Figure 4", pts)
	for _, want := range []string{"Figure 4", "req/s", "16"} {
		if !strings.Contains(out, want) {
			t.Fatalf("browse format missing %q:\n%s", want, out)
		}
	}
	t1 := FormatTable1(Table1(DefaultProcessingParams(), HistogramWorkload()))
	for _, want := range []string{"histogram test", "S/1", "C/cached", "Turnover", "sojourn"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("table1 format missing %q", want)
		}
	}
	if FormatTable1(nil) != "" {
		t.Fatal("empty table1 format")
	}
	ap := FormatApprox(ApproxResult{Analysis: "lightcurve", RawBytes: 100, ViewBytes: 10, Speedup: 12})
	if !strings.Contains(ap, "lightcurve") || !strings.Contains(ap, "12.0x") {
		t.Fatalf("approx format:\n%s", ap)
	}
	ch := FormatCharacteristics(WorkloadCharacteristics(ImagingWorkload()), 2)
	if !strings.Contains(ch, "Table 2") || !strings.Contains(ch, "Requests      100") {
		t.Fatalf("characteristics format:\n%s", ch)
	}
}
