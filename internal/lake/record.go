package lake

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The commit journal is a flat sequence of CRC-framed LJN1 records. Every
// frame is
//
//	"LJN1" | u32 payloadLen | payload | u32 crc32(payload)
//
// and the payload is a fixed-order binary rendering of one Record. The
// framing gives the reader two independent integrity signals: the length
// (a truncated final frame is a torn append, dropped silently, exactly the
// discipline the WAL already follows) and the
// checksum (a damaged payload inside a complete frame is detected, never
// silently decoded). Records are strictly sequential — record N carries
// Seq == N — so a CRC-valid record with the wrong sequence number is
// logical corruption and refuses to load.

// crc32Sum is the member/payload checksum used throughout the lake.
func crc32Sum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Kind classifies a journal commit.
type Kind uint8

// Commit kinds. Ingest/Delete/Compact change the logical view; GC changes
// only physical state (horizon + container deletion); Pin/Unpin manage the
// durable time-travel pin set.
const (
	KindIngest  Kind = 1
	KindDelete  Kind = 2
	KindCompact Kind = 3
	KindGC      Kind = 4
	KindPin     Kind = 5
	KindUnpin   Kind = 6
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindIngest:
		return "ingest"
	case KindDelete:
		return "delete"
	case KindCompact:
		return "compact"
	case KindGC:
		return "gc"
	case KindPin:
		return "pin"
	case KindUnpin:
		return "unpin"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Member is one addressable file inside a container: the unit a reader
// asks for by relative path. Day is the mission-day partition key the
// compactor sorts merged containers by.
type Member struct {
	Rel  string
	Day  int64
	Off  int64
	Size int64
	CRC  uint32
}

// Container is one immutable container file and the members it carries.
type Container struct {
	Path    string
	Members []Member
}

// Record is one journal commit.
type Record struct {
	Seq  uint64
	Kind Kind
	Time int64 // unix nanoseconds, informational only

	// Adds are containers entering the view at this commit; Removes are
	// container paths leaving it (compaction victims) — or, in a GC
	// record, containers being physically deleted (they left the view at
	// an earlier commit). Tombstones are member paths logically deleted.
	Adds       []Container
	Removes    []string
	Tombstones []string

	// Horizon is the oldest still-openable commit after a GC record.
	Horizon uint64

	// PinSeq/PinToken name a durable time-travel pin (pin/unpin records).
	PinSeq   uint64
	PinToken string
}

const (
	recordMagic = "LJN1"
	// maxRecord bounds a single record's payload: a defense against a
	// corrupt length field allocating gigabytes before the CRC check.
	maxRecord = 64 << 20
	// maxCount bounds every decoded slice length the same way.
	maxCount = 1 << 20
)

// ErrCorrupt reports journal damage that is NOT a torn tail: a damaged
// record with well-formed records after it, a sequence gap, or a head
// pointer ahead of the replayable journal.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "lake: journal corrupt: " + e.Reason }

// --- encoding -------------------------------------------------------------

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putI64(b []byte, v int64) []byte  { return putU64(b, uint64(v)) }
func putStr(b []byte, s string) []byte { return append(putU32(b, uint32(len(s))), s...) }

// encodeRecord renders one record as a complete LJN1 frame.
func encodeRecord(r *Record) []byte {
	p := make([]byte, 0, 128)
	p = putU64(p, r.Seq)
	p = append(p, byte(r.Kind))
	p = putI64(p, r.Time)
	p = putU32(p, uint32(len(r.Adds)))
	for _, c := range r.Adds {
		p = putStr(p, c.Path)
		p = putU32(p, uint32(len(c.Members)))
		for _, m := range c.Members {
			p = putStr(p, m.Rel)
			p = putI64(p, m.Day)
			p = putI64(p, m.Off)
			p = putI64(p, m.Size)
			p = putU32(p, m.CRC)
		}
	}
	p = putU32(p, uint32(len(r.Removes)))
	for _, s := range r.Removes {
		p = putStr(p, s)
	}
	p = putU32(p, uint32(len(r.Tombstones)))
	for _, s := range r.Tombstones {
		p = putStr(p, s)
	}
	p = putU64(p, r.Horizon)
	p = putU64(p, r.PinSeq)
	p = putStr(p, r.PinToken)

	out := make([]byte, 0, len(p)+12)
	out = append(out, recordMagic...)
	out = putU32(out, uint32(len(p)))
	out = append(out, p...)
	out = putU32(out, crc32.ChecksumIEEE(p))
	return out
}

// --- decoding -------------------------------------------------------------

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("lake: record %s truncated or malformed", what)
	}
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64(what string) int64 { return int64(d.u64(what)) }

func (d *decoder) byte(what string) byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) str(what string) string {
	n := d.u32(what)
	if d.err != nil || uint64(n) > uint64(len(d.b)-d.off) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// count reads a slice length and sanity-bounds it against the remaining
// bytes (every element needs at least min bytes).
func (d *decoder) count(what string, min int) int {
	n := d.u32(what)
	if d.err != nil {
		return 0
	}
	if n > maxCount || int64(n)*int64(min) > int64(len(d.b)-d.off) {
		d.fail(what)
		return 0
	}
	return int(n)
}

// decodePayload decodes one record payload (the bytes between the length
// prefix and the CRC).
func decodePayload(p []byte) (*Record, error) {
	d := &decoder{b: p}
	r := &Record{}
	r.Seq = d.u64("seq")
	r.Kind = Kind(d.byte("kind"))
	r.Time = d.i64("time")
	nAdds := d.count("adds", 8)
	for i := 0; i < nAdds && d.err == nil; i++ {
		c := Container{Path: d.str("container path")}
		nM := d.count("members", 40)
		for j := 0; j < nM && d.err == nil; j++ {
			m := Member{Rel: d.str("member rel")}
			m.Day = d.i64("member day")
			m.Off = d.i64("member off")
			m.Size = d.i64("member size")
			m.CRC = d.u32("member crc")
			c.Members = append(c.Members, m)
		}
		r.Adds = append(r.Adds, c)
	}
	nRem := d.count("removes", 4)
	for i := 0; i < nRem && d.err == nil; i++ {
		r.Removes = append(r.Removes, d.str("remove path"))
	}
	nTomb := d.count("tombstones", 4)
	for i := 0; i < nTomb && d.err == nil; i++ {
		r.Tombstones = append(r.Tombstones, d.str("tombstone rel"))
	}
	r.Horizon = d.u64("horizon")
	r.PinSeq = d.u64("pin seq")
	r.PinToken = d.str("pin token")
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(p) {
		return nil, fmt.Errorf("lake: record has %d trailing bytes", len(p)-d.off)
	}
	switch r.Kind {
	case KindIngest, KindDelete, KindCompact, KindGC, KindPin, KindUnpin:
	default:
		return nil, fmt.Errorf("lake: unknown record kind %d", r.Kind)
	}
	return r, nil
}

// decodeFrame decodes one complete frame at the start of b, returning the
// record and the frame length. An incomplete or damaged frame returns an
// error; the caller decides whether it is a torn tail or corruption.
func decodeFrame(b []byte) (*Record, int, error) {
	if len(b) < len(recordMagic)+4 {
		return nil, 0, fmt.Errorf("lake: frame header truncated")
	}
	if string(b[:4]) != recordMagic {
		return nil, 0, fmt.Errorf("lake: bad frame magic %q", b[:4])
	}
	n := binary.LittleEndian.Uint32(b[4:])
	if n > maxRecord {
		return nil, 0, fmt.Errorf("lake: frame length %d exceeds limit", n)
	}
	total := 8 + int(n) + 4
	if len(b) < total {
		return nil, 0, fmt.Errorf("lake: frame body truncated (%d of %d bytes)", len(b), total)
	}
	payload := b[8 : 8+int(n)]
	want := binary.LittleEndian.Uint32(b[8+int(n):])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0, fmt.Errorf("lake: frame checksum mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, total, nil
}

// DecodeJournal decodes a journal image. A damaged FINAL region is a torn
// append — the record it held was never acknowledged, so it is dropped and
// goodTail reports where the intact journal ends. Records must be strictly
// sequential from 1; a sequence gap is corruption. The caller is expected
// to cross-check the result against the published head pointer: dropping a
// "torn tail" below an acknowledged head is corruption too, but only the
// caller holds the head pointer.
func DecodeJournal(data []byte) (records []*Record, goodTail int64, err error) {
	off := 0
	for off < len(data) {
		rec, n, derr := decodeFrame(data[off:])
		if derr != nil {
			// Damaged region at the end of the image: torn append, drop.
			return records, int64(off), nil
		}
		if rec.Seq != uint64(len(records))+1 {
			return records, int64(off), &CorruptError{
				Reason: fmt.Sprintf("record %d carries seq %d", len(records)+1, rec.Seq),
			}
		}
		records = append(records, rec)
		off += n
	}
	return records, int64(off), nil
}
