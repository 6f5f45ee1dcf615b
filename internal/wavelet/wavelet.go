// Package wavelet implements the orthonormal Haar wavelet codec behind
// HEDC's approximated analysis and visualization (§3.4, §6.3): raw data is
// pre-processed at load time into wavelet-compressed, range-partitioned
// views, and clients reconstruct an approximated view from a fraction of
// the coefficients. Because many analysis routines cost at least linearly
// in input size, working on the approximation shortens the holistic
// response time by an order of magnitude or more.
//
// Coefficients are stored in decreasing magnitude order (embedded coding),
// so any prefix of the stream yields the best L2 approximation available at
// that size — this is what makes progressive download-and-refine in the
// StreamCorder work.
package wavelet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

var sqrt2 = math.Sqrt(2)

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// forward1D transforms a in place; len(a) must be a power of two.
func forward1D(a []float64) {
	tmp := make([]float64, len(a))
	for length := len(a); length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			tmp[i] = (a[2*i] + a[2*i+1]) / sqrt2
			tmp[half+i] = (a[2*i] - a[2*i+1]) / sqrt2
		}
		copy(a[:length], tmp[:length])
	}
}

// inverse1D undoes forward1D in place.
func inverse1D(a []float64) {
	tmp := make([]float64, len(a))
	for length := 2; length <= len(a); length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			tmp[2*i] = (a[i] + a[half+i]) / sqrt2
			tmp[2*i+1] = (a[i] - a[half+i]) / sqrt2
		}
		copy(a[:length], tmp[:length])
	}
}

// Coeff is one retained wavelet coefficient.
type Coeff struct {
	Index uint32
	Value float32
}

// Encoded is a compressed array: dimensions plus the magnitude-ordered
// coefficient stream. W is the padded width; H is 1 for one-dimensional
// data. OrigW/OrigH are the pre-padding dimensions.
type Encoded struct {
	W, H         int
	OrigW, OrigH int
	Coeffs       []Coeff
}

// Encode2D compresses a row-major matrix using the standard (separable)
// Haar decomposition.
func Encode2D(rows [][]float64, keep float64) *Encoded {
	h := len(rows)
	w := 0
	for _, r := range rows {
		if len(r) > w {
			w = len(r)
		}
	}
	pw, ph := nextPow2(w), nextPow2(h)
	buf := make([]float64, pw*ph)
	for y, r := range rows {
		copy(buf[y*pw:y*pw+len(r)], r)
	}
	// Transform rows, then columns.
	for y := 0; y < ph; y++ {
		forward1D(buf[y*pw : (y+1)*pw])
	}
	col := make([]float64, ph)
	for x := 0; x < pw; x++ {
		for y := 0; y < ph; y++ {
			col[y] = buf[y*pw+x]
		}
		forward1D(col)
		for y := 0; y < ph; y++ {
			buf[y*pw+x] = col[y]
		}
	}
	return pack(buf, pw, ph, w, h, keep)
}

func pack(buf []float64, w, h, origW, origH int, keep float64) *Encoded {
	if keep <= 0 || keep > 1 {
		keep = 1
	}
	idx := make([]int, 0, len(buf))
	for i, v := range buf {
		if v != 0 {
			idx = append(idx, i)
		}
	}
	n := int(math.Ceil(keep * float64(len(idx))))
	if n < 1 && len(idx) > 0 {
		n = 1
	}
	if n > len(idx) {
		n = len(idx)
	}
	// Progressive-stream order: descending |value|, ties by index — a strict
	// total order, so selecting the top n and then sorting just that prefix
	// yields exactly the same stream head as sorting everything. With keep
	// well below 1 the selection is O(len) and the sort shrinks by 1/keep.
	streamLess := func(a, b int) bool {
		ma, mb := math.Abs(buf[a]), math.Abs(buf[b])
		if ma != mb {
			return ma > mb
		}
		return a < b
	}
	if n < len(idx) {
		quickselect(idx, n, streamLess)
	}
	sort.Slice(idx[:n], func(a, b int) bool { return streamLess(idx[a], idx[b]) })
	enc := &Encoded{W: w, H: h, OrigW: origW, OrigH: origH, Coeffs: make([]Coeff, n)}
	for i := 0; i < n; i++ {
		enc.Coeffs[i] = Coeff{Index: uint32(idx[i]), Value: float32(buf[idx[i]])}
	}
	return enc
}

// quickselect partitions idx so that its n smallest entries under less
// occupy idx[:n] (in arbitrary order). Median-of-three pivoting keeps the
// worst case away from the sorted/reverse-sorted inputs wavelets produce.
func quickselect(idx []int, n int, less func(a, b int) bool) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if less(idx[hi], idx[lo]) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if less(idx[hi], idx[mid]) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := idx[mid]
		idx[mid], idx[hi] = idx[hi], idx[mid]
		i := lo
		for j := lo; j < hi; j++ {
			if less(idx[j], pivot) {
				idx[i], idx[j] = idx[j], idx[i]
				i++
			}
		}
		idx[i], idx[hi] = idx[hi], idx[i]
		switch {
		case i == n:
			return
		case i > n:
			hi = i - 1
		default:
			lo = i + 1
		}
	}
}

// Decode2D reconstructs an approximated matrix from the first frac of the
// coefficient stream.
func (e *Encoded) Decode2D(frac float64) [][]float64 {
	buf := e.expand(frac)
	col := make([]float64, e.H)
	for x := 0; x < e.W; x++ {
		for y := 0; y < e.H; y++ {
			col[y] = buf[y*e.W+x]
		}
		inverse1D(col)
		for y := 0; y < e.H; y++ {
			buf[y*e.W+x] = col[y]
		}
	}
	for y := 0; y < e.H; y++ {
		inverse1D(buf[y*e.W : (y+1)*e.W])
	}
	out := make([][]float64, e.OrigH)
	for y := range out {
		out[y] = buf[y*e.W : y*e.W+e.OrigW]
	}
	return out
}

func (e *Encoded) expand(frac float64) []float64 {
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	n := int(math.Ceil(frac * float64(len(e.Coeffs))))
	if n < 1 && len(e.Coeffs) > 0 {
		n = 1
	}
	buf := make([]float64, e.W*e.H)
	for _, c := range e.Coeffs[:n] {
		if int(c.Index) < len(buf) {
			buf[c.Index] = float64(c.Value)
		}
	}
	return buf
}

// CompressedSize returns the serialized size in bytes.
func (e *Encoded) CompressedSize() int { return len(e.Bytes()) }

const encMagic = "HWAV1"

// Bytes serializes the encoding.
func (e *Encoded) Bytes() []byte {
	var b bytes.Buffer
	b.WriteString(encMagic)
	for _, v := range []uint64{uint64(e.W), uint64(e.H), uint64(e.OrigW), uint64(e.OrigH), uint64(len(e.Coeffs))} {
		var tmp [binary.MaxVarintLen64]byte
		b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	for _, c := range e.Coeffs {
		var tmp [binary.MaxVarintLen64]byte
		b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(c.Index))])
		var f [4]byte
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(c.Value))
		b.Write(f[:])
	}
	return b.Bytes()
}

// Parse deserializes an encoding produced by Bytes.
func Parse(data []byte) (*Encoded, error) {
	if len(data) < len(encMagic) || string(data[:len(encMagic)]) != encMagic {
		return nil, fmt.Errorf("wavelet: bad magic")
	}
	r := bytes.NewReader(data[len(encMagic):])
	var vals [5]uint64
	for i := range vals {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("wavelet: truncated header: %w", err)
		}
		vals[i] = v
	}
	e := &Encoded{W: int(vals[0]), H: int(vals[1]), OrigW: int(vals[2]), OrigH: int(vals[3])}
	if e.W <= 0 || e.H <= 0 || e.OrigW > e.W || e.OrigH > e.H {
		return nil, fmt.Errorf("wavelet: implausible dimensions %dx%d (orig %dx%d)", e.W, e.H, e.OrigW, e.OrigH)
	}
	n := int(vals[4])
	if n < 0 || n > e.W*e.H {
		return nil, fmt.Errorf("wavelet: implausible coefficient count %d", n)
	}
	e.Coeffs = make([]Coeff, n)
	for i := range e.Coeffs {
		idx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("wavelet: truncated coefficients: %w", err)
		}
		var f [4]byte
		if _, err := io.ReadFull(r, f[:]); err != nil {
			return nil, fmt.Errorf("wavelet: truncated coefficients: %w", err)
		}
		e.Coeffs[i] = Coeff{Index: uint32(idx), Value: math.Float32frombits(binary.LittleEndian.Uint32(f[:]))}
	}
	return e, nil
}
