// Package fits implements a FITS-style container format: headers made of
// 80-byte keyword cards grouped into 2880-byte blocks, followed by a binary
// data unit, with any number of header-data units (HDUs) per file.
//
// RHESSI telemetry reaches HEDC "formatted as Flexible Image Transport
// System (FITS) files and compressed using gnu-zip" (§2.1). This package
// provides the same structure — enough that the rest of the system
// exercises real format parsing, format evolution, and metadata extraction
// — without reimplementing the full FITS standard.
package fits

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

const (
	blockSize = 2880
	cardSize  = 80
)

// Card is one 80-byte header record: a keyword, a value and a comment.
type Card struct {
	Key     string
	Value   string // raw value text; strings carry surrounding quotes
	Comment string
}

// HDU is a header-data unit.
type HDU struct {
	Cards []Card
	Data  []byte
}

// File is an ordered sequence of HDUs.
type File struct {
	HDUs []*HDU
}

// NewHDU builds an HDU with the mandatory cards for a byte data unit.
func NewHDU(data []byte) *HDU {
	h := &HDU{Data: data}
	h.SetBool("SIMPLE", true, "conforms to the subset of FITS used by HEDC")
	h.SetInt("BITPIX", 8, "8-bit bytes")
	h.SetInt("NAXIS", 1, "one data axis")
	h.SetInt("NAXIS1", int64(len(data)), "data length in bytes")
	return h
}

// Get returns the raw value text for key.
func (h *HDU) Get(key string) (string, bool) {
	for _, c := range h.Cards {
		if c.Key == key {
			return c.Value, true
		}
	}
	return "", false
}

// GetInt parses the value of key as an integer.
func (h *HDU) GetInt(key string) (int64, bool) {
	v, ok := h.Get(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// GetFloat parses the value of key as a float.
func (h *HDU) GetFloat(key string) (float64, bool) {
	v, ok := h.Get(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// GetString parses the value of key as a quoted FITS string.
func (h *HDU) GetString(key string) (string, bool) {
	v, ok := h.Get(key)
	if !ok {
		return "", false
	}
	v = strings.TrimSpace(v)
	if len(v) >= 2 && v[0] == '\'' && v[len(v)-1] == '\'' {
		// FITS escapes single quotes by doubling them.
		return strings.ReplaceAll(v[1:len(v)-1], "''", "'"), true
	}
	return v, true
}

// set replaces or appends a card.
func (h *HDU) set(key, value, comment string) {
	for i, c := range h.Cards {
		if c.Key == key {
			h.Cards[i].Value = value
			h.Cards[i].Comment = comment
			return
		}
	}
	h.Cards = append(h.Cards, Card{Key: key, Value: value, Comment: comment})
}

// SetInt writes an integer-valued card.
func (h *HDU) SetInt(key string, v int64, comment string) {
	h.set(key, strconv.FormatInt(v, 10), comment)
}

// SetFloat writes a float-valued card.
func (h *HDU) SetFloat(key string, v float64, comment string) {
	h.set(key, strconv.FormatFloat(v, 'G', -1, 64), comment)
}

// SetString writes a quoted string card.
func (h *HDU) SetString(key string, v, comment string) {
	h.set(key, "'"+strings.ReplaceAll(v, "'", "''")+"'", comment)
}

// SetBool writes a logical card (T/F).
func (h *HDU) SetBool(key string, v bool, comment string) {
	if v {
		h.set(key, "T", comment)
	} else {
		h.set(key, "F", comment)
	}
}

// formatCard renders an 80-byte card image.
func formatCard(c Card) []byte {
	out := make([]byte, cardSize)
	for i := range out {
		out[i] = ' '
	}
	key := c.Key
	if len(key) > 8 {
		key = key[:8]
	}
	copy(out, key)
	rest := "= " + c.Value
	if c.Comment != "" {
		rest += " / " + c.Comment
	}
	if len(rest) > cardSize-8 {
		rest = rest[:cardSize-8]
	}
	copy(out[8:], rest)
	return out
}

// parseCard decodes one 80-byte card image; blank and END cards return
// ok=false.
func parseCard(img []byte) (Card, bool) {
	key := strings.TrimRight(string(img[:8]), " ")
	if key == "" || key == "END" {
		return Card{}, false
	}
	rest := string(img[8:])
	if !strings.HasPrefix(rest, "= ") {
		return Card{Key: key, Comment: strings.TrimSpace(rest)}, true
	}
	rest = rest[2:]
	var value, comment string
	if strings.HasPrefix(strings.TrimLeft(rest, " "), "'") {
		// Quoted string: find the closing quote, honouring '' escapes.
		trimmed := strings.TrimLeft(rest, " ")
		end := -1
		for i := 1; i < len(trimmed); i++ {
			if trimmed[i] != '\'' {
				continue
			}
			if i+1 < len(trimmed) && trimmed[i+1] == '\'' {
				i++ // escaped quote
				continue
			}
			end = i
			break
		}
		if end < 0 {
			value = strings.TrimRight(trimmed, " ")
		} else {
			value = trimmed[:end+1]
			tail := trimmed[end+1:]
			if idx := strings.Index(tail, "/"); idx >= 0 {
				comment = strings.TrimSpace(tail[idx+1:])
			}
		}
	} else {
		if idx := strings.Index(rest, "/"); idx >= 0 {
			value = strings.TrimSpace(rest[:idx])
			comment = strings.TrimSpace(rest[idx+1:])
		} else {
			value = strings.TrimSpace(rest)
		}
	}
	return Card{Key: key, Value: value, Comment: comment}, true
}

// Encode writes the file: each HDU's header cards (END-terminated, padded to
// a block boundary) followed by its data (padded to a block boundary).
func (f *File) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, h := range f.HDUs {
		// The data length card must be accurate; rewrite it defensively.
		h.SetInt("NAXIS1", int64(len(h.Data)), "data length in bytes")
		written := 0
		for _, c := range h.Cards {
			if _, err := bw.Write(formatCard(c)); err != nil {
				return err
			}
			written += cardSize
		}
		endCard := Card{Key: "END"}
		img := make([]byte, cardSize)
		for i := range img {
			img[i] = ' '
		}
		copy(img, endCard.Key)
		if _, err := bw.Write(img); err != nil {
			return err
		}
		written += cardSize
		if err := pad(bw, written); err != nil {
			return err
		}
		if _, err := bw.Write(h.Data); err != nil {
			return err
		}
		if err := pad(bw, len(h.Data)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodedLen returns the number of bytes Encode writes for f.
func (f *File) EncodedLen() int {
	n := 0
	for _, h := range f.HDUs {
		cards := len(h.Cards) + 1 // END
		if _, ok := h.Get("NAXIS1"); !ok {
			cards++ // Encode adds it
		}
		n += padded(cards*cardSize) + padded(len(h.Data))
	}
	return n
}

// padded rounds n up to a whole number of blocks.
func padded(n int) int { return (n + blockSize - 1) / blockSize * blockSize }

func pad(w io.Writer, written int) error {
	rem := written % blockSize
	if rem == 0 {
		return nil
	}
	_, err := w.Write(make([]byte, blockSize-rem))
	return err
}

// Decode reads a complete file.
func Decode(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	f := &File{}
	for {
		h, err := decodeHDU(br)
		if err == io.EOF {
			if len(f.HDUs) == 0 {
				return nil, fmt.Errorf("fits: empty file")
			}
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		f.HDUs = append(f.HDUs, h)
	}
}

func decodeHDU(br *bufio.Reader) (*HDU, error) {
	h := &HDU{}
	// Header: read blocks of cards until END.
	sawEnd := false
	block := make([]byte, blockSize)
	for !sawEnd {
		if _, err := io.ReadFull(br, block); err != nil {
			if err == io.ErrUnexpectedEOF && len(h.Cards) == 0 {
				return nil, io.EOF
			}
			if err == io.EOF {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("fits: truncated header: %w", err)
		}
		for off := 0; off < blockSize; off += cardSize {
			img := block[off : off+cardSize]
			key := strings.TrimRight(string(img[:8]), " ")
			if key == "END" {
				sawEnd = true
				break
			}
			if c, ok := parseCard(img); ok {
				h.Cards = append(h.Cards, c)
			}
		}
	}
	n, ok := h.GetInt("NAXIS1")
	if !ok {
		return nil, fmt.Errorf("fits: header missing NAXIS1")
	}
	if n < 0 || n > 1<<33 {
		return nil, fmt.Errorf("fits: implausible data length %d", n)
	}
	h.Data = make([]byte, n)
	if _, err := io.ReadFull(br, h.Data); err != nil {
		return nil, fmt.Errorf("fits: truncated data unit: %w", err)
	}
	// Skip data padding.
	if rem := int(n) % blockSize; rem != 0 {
		if _, err := io.CopyN(io.Discard, br, int64(blockSize-rem)); err != nil {
			return nil, fmt.Errorf("fits: truncated data padding: %w", err)
		}
	}
	return h, nil
}
