package telemetry

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// missionDay is one generated day as the ingest benchmark loads them:
// four hours of observation cut into 600-s units.
func missionDay(seed int64) []*Unit {
	day := GenerateDay(1, Config{Seed: seed, DayLength: 14400, Flares: 6, Bursts: 1})
	return SegmentDay(day, 600)
}

// flareUnit returns the unit of the day with the most photons.
func flareUnit(units []*Unit) *Unit {
	best := units[0]
	for _, u := range units {
		if len(u.Photons) > len(best.Photons) {
			best = u
		}
	}
	return best
}

func fitsBytes(t testing.TB, u *Unit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := u.FITS().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPackGzIsOneGzipMemberOfTheFITSBytes(t *testing.T) {
	quiet := SegmentDay(GenerateDay(1, Config{Seed: 3, DayLength: 600}), 600)[0]
	cases := map[string]*Unit{
		"empty": {Day: 1, Seq: 0, TStart: 0, TStop: 600},
		"quiet": quiet,
		"flare": flareUnit(missionDay(3)),
	}
	for name, u := range cases {
		raw, err := u.PackGz()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src := bytes.NewReader(raw)
		zr, err := gzip.NewReader(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		zr.Multistream(false)
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: inflate: %v", name, err)
		}
		if src.Len() != 0 {
			t.Fatalf("%s: %d bytes after the first gzip member", name, src.Len())
		}
		if want := fitsBytes(t, u); !bytes.Equal(got, want) {
			t.Fatalf("%s: inflates to %d bytes that differ from the %d-byte FITS encoding", name, len(got), len(want))
		}
	}
}

// The archive's size is the price of the pack level: pin it so that a
// later change of level or encoding cannot grow the archive unnoticed.
func TestPackGzSizeOverADay(t *testing.T) {
	var fitsLen, gzLen int
	for _, u := range missionDay(3) {
		raw, err := u.PackGz()
		if err != nil {
			t.Fatal(err)
		}
		fitsLen += len(fitsBytes(t, u))
		gzLen += len(raw)
	}
	if r := float64(gzLen) / float64(fitsLen); r > 0.91 {
		t.Fatalf("packed day is %.3f of its %d FITS bytes, want <= 0.91", r, fitsLen)
	}
}

var packSink []byte

func BenchmarkPackGz(b *testing.B) {
	u := flareUnit(missionDay(3))
	b.SetBytes(int64(len(fitsBytes(b, u))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := u.PackGz()
		if err != nil {
			b.Fatal(err)
		}
		packSink = raw
	}
}
