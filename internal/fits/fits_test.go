package fits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCardFormatParseRoundTrip(t *testing.T) {
	cases := []Card{
		{Key: "SIMPLE", Value: "T", Comment: "conforms"},
		{Key: "BITPIX", Value: "8"},
		{Key: "OBSERVER", Value: "'RHESSI'", Comment: "spacecraft"},
		{Key: "QUOTED", Value: "'it''s'", Comment: "escaped quote"},
		{Key: "EXPOSURE", Value: "12.5"},
	}
	for _, c := range cases {
		img := formatCard(c)
		if len(img) != 80 {
			t.Fatalf("card image %d bytes", len(img))
		}
		got, ok := parseCard(img)
		if !ok {
			t.Fatalf("parseCard(%q) failed", img)
		}
		if got.Key != c.Key || got.Value != c.Value {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
	}
}

func TestHDUTypedAccessors(t *testing.T) {
	h := NewHDU([]byte("hello"))
	h.SetString("UNIT", "raw-42", "unit name")
	h.SetFloat("TSTART", 12.5, "")
	h.SetBool("CALIB", false, "")

	if v, ok := h.GetInt("NAXIS1"); !ok || v != 5 {
		t.Fatalf("NAXIS1 = %v %v", v, ok)
	}
	if v, ok := h.GetString("UNIT"); !ok || v != "raw-42" {
		t.Fatalf("UNIT = %q %v", v, ok)
	}
	if v, ok := h.GetFloat("TSTART"); !ok || v != 12.5 {
		t.Fatalf("TSTART = %v %v", v, ok)
	}
	if v, ok := h.Get("CALIB"); !ok || v != "F" {
		t.Fatalf("CALIB = %q %v", v, ok)
	}
	if _, ok := h.Get("MISSING"); ok {
		t.Fatal("missing key found")
	}
	// Overwrite keeps one card.
	h.SetString("UNIT", "raw-43", "")
	count := 0
	for _, c := range h.Cards {
		if c.Key == "UNIT" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("UNIT card count = %d", count)
	}
}

func TestStringEscaping(t *testing.T) {
	h := NewHDU(nil)
	h.SetString("NAME", "o'brien", "")
	got, ok := h.GetString("NAME")
	if !ok || got != "o'brien" {
		t.Fatalf("GetString = %q %v", got, ok)
	}
}

func TestEncodeDecodeSingleHDU(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 5000) // crosses a block boundary
	f := &File{HDUs: []*HDU{NewHDU(data)}}
	f.HDUs[0].SetString("EXTNAME", "RAW", "")

	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len()%2880 != 0 {
		t.Fatalf("encoded length %d not block aligned", buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.HDUs) != 1 {
		t.Fatalf("HDUs = %d", len(got.HDUs))
	}
	if !bytes.Equal(got.HDUs[0].Data, data) {
		t.Fatal("data corrupted")
	}
	if name, _ := got.HDUs[0].GetString("EXTNAME"); name != "RAW" {
		t.Fatalf("EXTNAME = %q", name)
	}
}

func TestEncodeDecodeMultipleHDUs(t *testing.T) {
	f := &File{}
	for i := 0; i < 4; i++ {
		h := NewHDU(bytes.Repeat([]byte{byte(i)}, i*1000))
		if i == 2 {
			h = &HDU{Data: bytes.Repeat([]byte{byte(i)}, i*1000)} // Encode adds NAXIS1
		}
		h.SetInt("SEQ", int64(i), "")
		f.HDUs = append(f.HDUs, h)
	}
	n := f.EncodedLen()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatalf("encoded %d bytes, EncodedLen said %d", buf.Len(), n)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.HDUs) != 4 {
		t.Fatalf("HDUs = %d", len(got.HDUs))
	}
	for i, h := range got.HDUs {
		if seq, _ := h.GetInt("SEQ"); seq != int64(i) {
			t.Fatalf("HDU %d SEQ = %d", i, seq)
		}
		if len(h.Data) != i*1000 {
			t.Fatalf("HDU %d data len = %d", i, len(h.Data))
		}
	}
}

func TestDecodeEmptyAndTruncated(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	f := &File{HDUs: []*HDU{NewHDU(make([]byte, 4000))}}
	var buf bytes.Buffer
	f.Encode(&buf)
	trunc := buf.Bytes()[:buf.Len()-2880]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestPhotonTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	photons := make([]Photon, 1000)
	for i := range photons {
		photons[i] = Photon{
			Time:     float64(i) * 0.01,
			Energy:   3 + rng.Float64()*19997, // 3 keV .. 20 MeV
			Detector: uint8(rng.Intn(9)),
			Segment:  uint8(rng.Intn(2)),
		}
	}
	h := EncodePhotons(photons)
	if n, _ := h.GetInt("NPHOTON"); n != 1000 {
		t.Fatalf("NPHOTON = %d", n)
	}
	if ts, _ := h.GetFloat("TSTART"); ts != 0 {
		t.Fatalf("TSTART = %v", ts)
	}
	got, err := DecodePhotons(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(photons) {
		t.Fatalf("decoded %d photons", len(got))
	}
	for i := range got {
		if got[i] != photons[i] {
			t.Fatalf("photon %d: %+v != %+v", i, got[i], photons[i])
		}
	}
}

func TestPhotonTableThroughFileEncoding(t *testing.T) {
	photons := []Photon{{Time: 1, Energy: 25, Detector: 3, Segment: 1}}
	f := &File{HDUs: []*HDU{EncodePhotons(photons)}}
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodePhotons(got.HDUs[0])
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0] != photons[0] {
		t.Fatalf("photon = %+v", decoded[0])
	}
}

func TestDecodePhotonsRejectsWrongHDU(t *testing.T) {
	h := NewHDU([]byte("not photons"))
	if _, err := DecodePhotons(h); err == nil {
		t.Fatal("non-photon HDU accepted")
	}
	// Corrupt record count.
	h2 := EncodePhotons([]Photon{{Time: 1, Energy: 2}})
	h2.SetInt("NPHOTON", 99, "")
	if _, err := DecodePhotons(h2); err == nil {
		t.Fatal("inconsistent NPHOTON accepted")
	}
}

// Property: file encode/decode preserves every HDU's data and cards.
func TestQuickFileRoundTrip(t *testing.T) {
	check := func(payloads [][]byte, names []string) bool {
		if len(payloads) == 0 {
			return true
		}
		f := &File{}
		for i, p := range payloads {
			h := NewHDU(p)
			if i < len(names) {
				// FITS cards cannot carry arbitrary bytes; sanitize to a
				// printable subset as real headers do.
				name := ""
				for _, r := range names[i] {
					if r >= 32 && r < 127 && r != '\'' {
						name += string(r)
					}
				}
				if len(name) > 40 {
					name = name[:40]
				}
				h.SetString("EXTNAME", name, "")
			}
			f.HDUs = append(f.HDUs, h)
		}
		n := f.EncodedLen()
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil || buf.Len() != n {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.HDUs) != len(f.HDUs) {
			return false
		}
		for i := range got.HDUs {
			if !bytes.Equal(got.HDUs[i].Data, f.HDUs[i].Data) {
				return false
			}
			wantName, wok := f.HDUs[i].GetString("EXTNAME")
			gotName, gok := got.HDUs[i].GetString("EXTNAME")
			if wok != gok || wantName != gotName {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: photon tables round-trip exactly.
func TestQuickPhotonRoundTrip(t *testing.T) {
	check := func(times []float64, energies []float64, dets []uint8) bool {
		n := len(times)
		if len(energies) < n {
			n = len(energies)
		}
		photons := make([]Photon, n)
		for i := range photons {
			d := uint8(0)
			if i < len(dets) {
				d = dets[i] % 9
			}
			photons[i] = Photon{Time: times[i], Energy: energies[i], Detector: d, Segment: d % 2}
		}
		got, err := DecodePhotons(EncodePhotons(photons))
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			w := photons[i]
			// NaN != NaN; compare bit patterns via re-encode instead.
			if got[i].Detector != w.Detector || got[i].Segment != w.Segment {
				return false
			}
			if got[i].Time != w.Time && !(got[i].Time != got[i].Time && w.Time != w.Time) {
				return false
			}
			if got[i].Energy != w.Energy && !(got[i].Energy != got[i].Energy && w.Energy != w.Energy) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
