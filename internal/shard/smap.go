package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"sort"

	"repro/internal/minidb"
)

// Map is one version of the shard layout: which shards exist and which
// shard owns each of the 64 hash slots. A Router's map is immutable: the
// layout is fixed when the cell is first opened and persisted, and every
// reopen loads it back.
type Map struct {
	Version uint64
	Shards  []int // sorted shard ids
	Slots   [NumSlots]int
}

// NewMap lays shardIDs out over the slot table in contiguous runs —
// hash-partitioned keys, range-partitioned slot space.
func NewMap(shardIDs []int) *Map {
	ids := append([]int(nil), shardIDs...)
	sort.Ints(ids)
	m := &Map{Version: 1, Shards: ids}
	n := len(ids)
	for s := 0; s < NumSlots; s++ {
		m.Slots[s] = ids[s*n/NumSlots]
	}
	return m
}

// Home is the shard that owns every homed (unsharded) table: the lowest
// shard id.
func (m *Map) Home() int { return m.Shards[0] }

// ReadOwner is the shard that owns a slot: every read and write of the
// slot's keys goes there.
func (m *Map) ReadOwner(slot int) int { return m.Slots[slot] }

// ReadShards is the scatter set: every shard owning at least one slot.
func (m *Map) ReadShards() []int {
	seen := make(map[int]bool, len(m.Shards))
	var out []int
	for s := 0; s < NumSlots; s++ {
		if !seen[m.Slots[s]] {
			seen[m.Slots[s]] = true
			out = append(out, m.Slots[s])
		}
	}
	sort.Ints(out)
	return out
}

// hasShard reports whether id is a registered shard.
func (m *Map) hasShard(id int) bool {
	i := sort.SearchInts(m.Shards, id)
	return i < len(m.Shards) && m.Shards[i] == id
}

// Validate checks internal consistency (used after decode and by fuzz).
func (m *Map) Validate() error {
	if m.Version == 0 {
		return errors.New("shard: map version 0")
	}
	if len(m.Shards) == 0 {
		return errors.New("shard: map has no shards")
	}
	if !sort.IntsAreSorted(m.Shards) {
		return errors.New("shard: shard ids not sorted")
	}
	for i := 1; i < len(m.Shards); i++ {
		if m.Shards[i] == m.Shards[i-1] {
			return errors.New("shard: duplicate shard id")
		}
	}
	for i, id := range m.Shards {
		if id < 0 || id > 1<<15 {
			return fmt.Errorf("shard: shard id %d out of range at %d", id, i)
		}
	}
	for s, owner := range m.Slots {
		if !m.hasShard(owner) {
			return fmt.Errorf("shard: slot %d owned by unknown shard %d", s, owner)
		}
	}
	return nil
}

// On-disk format: magic "SMAP1", then a uvarint-coded body, then the
// IEEE CRC32 of magic+body as 4 little-endian bytes. The file is written
// tmp + sync + rename, so a reader sees the old file or the new file;
// the CRC rejects torn or bit-flipped content. The body ends in a
// move-flag byte, always 0 here. Earlier builds wrote 1 plus an
// in-flight slot move while their online split ran (that protocol is in
// git from commit 04a475f); such a map is refused, never loaded without
// its move.
var mapMagic = []byte("SMAP1")

const mapFile = "SHARDMAP"

// EncodeMap renders m to its on-disk format.
func EncodeMap(m *Map) []byte {
	var b bytes.Buffer
	b.Write(mapMagic)
	minidb.WirePutUvarint(&b, m.Version)
	minidb.WirePutUvarint(&b, uint64(len(m.Shards)))
	for _, id := range m.Shards {
		minidb.WirePutUvarint(&b, uint64(id))
	}
	for _, owner := range m.Slots {
		minidb.WirePutUvarint(&b, uint64(owner))
	}
	b.WriteByte(0) // move flag
	sum := crc32.ChecksumIEEE(b.Bytes())
	b.Write([]byte{byte(sum), byte(sum >> 8), byte(sum >> 16), byte(sum >> 24)})
	return b.Bytes()
}

// DecodeMap parses and validates an on-disk shard map.
func DecodeMap(data []byte) (*Map, error) {
	if len(data) < len(mapMagic)+4 || !bytes.Equal(data[:len(mapMagic)], mapMagic) {
		return nil, errors.New("shard: bad map magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	sum := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16 | uint32(tail[3])<<24
	if crc32.ChecksumIEEE(body) != sum {
		return nil, errors.New("shard: map checksum mismatch")
	}
	r := bytes.NewReader(body[len(mapMagic):])
	m := &Map{}
	var err error
	if m.Version, err = minidb.WireUvarint(r); err != nil {
		return nil, fmt.Errorf("shard: map version: %w", err)
	}
	n, err := minidb.WireUvarint(r)
	if err != nil || n == 0 || n > 1<<15 {
		return nil, fmt.Errorf("shard: map shard count %d: %v", n, err)
	}
	m.Shards = make([]int, n)
	for i := range m.Shards {
		v, err := minidb.WireUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("shard: map shard id: %w", err)
		}
		m.Shards[i] = int(v)
	}
	for s := range m.Slots {
		v, err := minidb.WireUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("shard: map slot %d: %w", s, err)
		}
		m.Slots[s] = int(v)
	}
	flag, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("shard: map move flag: %w", err)
	}
	switch flag {
	case 0:
	case 1:
		from, _ := minidb.WireUvarint(r)
		to, _ := minidb.WireUvarint(r)
		return nil, fmt.Errorf("shard: map v%d records an unfinished split of shard %d onto %d; "+
			"this build has no split protocol to finish it", m.Version, from, to)
	default:
		return nil, fmt.Errorf("shard: bad move flag %d", flag)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("shard: %d trailing map bytes", r.Len())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveMap persists m atomically: write SHARDMAP.tmp, sync, rename. A
// crash anywhere leaves either the previous map or the new one.
func SaveMap(vfs minidb.VFS, dir string, m *Map) error {
	if err := vfs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: map dir: %w", err)
	}
	tmp := dir + "/" + mapFile + ".tmp"
	f, err := vfs.Create(tmp, 0o644)
	if err != nil {
		return fmt.Errorf("shard: map tmp: %w", err)
	}
	if _, err := f.Write(EncodeMap(m)); err != nil {
		f.Close()
		return fmt.Errorf("shard: map write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("shard: map sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: map close: %w", err)
	}
	if err := vfs.Rename(tmp, dir+"/"+mapFile); err != nil {
		return fmt.Errorf("shard: map rename: %w", err)
	}
	return nil
}

// LoadMap reads the persisted map, returning (nil, nil) when none exists
// yet. A torn or corrupt file is an error, never a silently wrong map.
func LoadMap(vfs minidb.VFS, dir string) (*Map, error) {
	data, err := vfs.ReadFile(dir + "/" + mapFile)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("shard: map read: %w", err)
	}
	return DecodeMap(data)
}
