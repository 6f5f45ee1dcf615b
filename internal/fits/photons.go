package fits

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Photon is one detector record of the RHESSI raw data: "a list of photon
// impacts on the detectors, with an energy and a time tag attached to each
// record" (§3.4), plus which of the nine germanium detectors (and which
// segment) registered it.
type Photon struct {
	Time     float64 // seconds since mission epoch
	Energy   float64 // keV (3 keV soft X-ray .. 20 MeV gamma)
	Detector uint8   // 0..8: the nine rotating modulation collimators
	Segment  uint8   // 0 front, 1 rear
}

// PhotonRecordSize is the length of one record of the binary photon table:
// 8 time + 8 energy + 1 detector + 1 segment.
const PhotonRecordSize = 18

// PhotonAt decodes record i of a photon record table (an HDU's Data).
func PhotonAt(recs []byte, i int) Photon {
	r := recs[i*PhotonRecordSize : (i+1)*PhotonRecordSize]
	return Photon{
		Time:     math.Float64frombits(binary.LittleEndian.Uint64(r)),
		Energy:   math.Float64frombits(binary.LittleEndian.Uint64(r[8:])),
		Detector: r[16],
		Segment:  r[17],
	}
}

// PhotonTimeAt decodes only the time tag of record i.
func PhotonTimeAt(recs []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(recs[i*PhotonRecordSize:]))
}

// EncodePhotons builds an HDU holding a binary photon-event table.
func EncodePhotons(photons []Photon) *HDU {
	data := make([]byte, len(photons)*PhotonRecordSize)
	for i, p := range photons {
		off := i * PhotonRecordSize
		binary.LittleEndian.PutUint64(data[off:], math.Float64bits(p.Time))
		binary.LittleEndian.PutUint64(data[off+8:], math.Float64bits(p.Energy))
		data[off+16] = p.Detector
		data[off+17] = p.Segment
	}
	h := NewHDU(data)
	h.SetString("EXTNAME", "PHOTONS", "binary photon-event table")
	h.SetInt("NPHOTON", int64(len(photons)), "photon record count")
	h.SetInt("RECSIZE", PhotonRecordSize, "bytes per record")
	if len(photons) > 0 {
		h.SetFloat("TSTART", photons[0].Time, "first photon time [s]")
		h.SetFloat("TSTOP", photons[len(photons)-1].Time, "last photon time [s]")
	}
	return h
}

// DecodePhotons parses a photon-event table HDU.
func DecodePhotons(h *HDU) ([]Photon, error) {
	if name, _ := h.GetString("EXTNAME"); name != "PHOTONS" {
		return nil, fmt.Errorf("fits: HDU %q is not a photon table", name)
	}
	rec, ok := h.GetInt("RECSIZE")
	if !ok || rec != PhotonRecordSize {
		return nil, fmt.Errorf("fits: unsupported photon record size %d", rec)
	}
	if len(h.Data)%PhotonRecordSize != 0 {
		return nil, fmt.Errorf("fits: photon table length %d not a record multiple", len(h.Data))
	}
	n := len(h.Data) / PhotonRecordSize
	if want, ok := h.GetInt("NPHOTON"); ok && want != int64(n) {
		return nil, fmt.Errorf("fits: NPHOTON %d disagrees with data length (%d records)", want, n)
	}
	photons := make([]Photon, n)
	for i := range photons {
		photons[i] = PhotonAt(h.Data, i)
	}
	return photons, nil
}
