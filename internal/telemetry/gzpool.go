package telemetry

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"
)

// Gzip codec pooling. Every raw unit is packaged as gzip-FITS on ingest and
// unpackaged on read; a gzip.Writer alone is 0.7 MB (Huffman-only) to
// 1.2 MB (BestSpeed) of window and coder state, so allocating one per unit
// dominated the loader's allocation profile. Both directions reuse codecs
// via sync.Pool — Reset makes a pooled codec indistinguishable from a fresh
// one.

// packLevel is the deflate level of every raw unit. Photon records are
// high-entropy floats that LZ77 matching barely shortens, so entropy coding
// alone keeps nearly all of the saving at under half the encode cost.
// Measured over 96 generated units (433 KB of FITS each) on a 2-core VM:
//
//	level          size / FITS bytes   encode per unit
//	NoCompression  1.000               0.3 ms
//	HuffmanOnly    0.899               2.6-3.0 ms
//	BestSpeed      0.870               5.4-6.7 ms
//	Default        0.853               16-19 ms
//
// The output is an ordinary gzip member at any level, so every reader (and
// every item archived at an earlier level) is unaffected by this choice.
const packLevel = gzip.HuffmanOnly

var gzWriterPool = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, packLevel)
		return zw
	},
}

var gzReaderPool sync.Pool // *gzip.Reader; lazily created (NewReader needs a valid stream)

// WithGzipWriter runs fn with a pooled gzip.Writer targeting dst, then
// closes (flushes) the stream and returns the writer to the pool.
func WithGzipWriter(dst io.Writer, fn func(zw *gzip.Writer) error) error {
	zw := gzWriterPool.Get().(*gzip.Writer)
	zw.Reset(dst)
	err := fn(zw)
	cerr := zw.Close()
	gzWriterPool.Put(zw)
	if err != nil {
		return err
	}
	return cerr
}

// WithGzipReader runs fn over the decompressed form of data using a pooled
// gzip.Reader.
func WithGzipReader(data []byte, fn func(r io.Reader) error) error {
	var zr *gzip.Reader
	if v := gzReaderPool.Get(); v != nil {
		zr = v.(*gzip.Reader)
		if err := zr.Reset(bytes.NewReader(data)); err != nil {
			gzReaderPool.Put(zr)
			return err
		}
	} else {
		var err error
		if zr, err = gzip.NewReader(bytes.NewReader(data)); err != nil {
			return err
		}
	}
	err := fn(zr)
	cerr := zr.Close()
	gzReaderPool.Put(zr)
	if err != nil {
		return err
	}
	return cerr
}

// PackGz returns the unit's archive representation: its FITS encoding,
// gzip-compressed with a pooled writer. This is the CPU-heavy half of
// ingest and is safe to run concurrently for different units.
func (u *Unit) PackGz() ([]byte, error) {
	f := u.FITS()
	var buf bytes.Buffer
	// The member comes out near 0.9 of the FITS bytes (packLevel), so a
	// buffer of the FITS length holds it without regrowth copies.
	buf.Grow(f.EncodedLen())
	if err := WithGzipWriter(&buf, func(zw *gzip.Writer) error {
		return f.Encode(zw)
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
