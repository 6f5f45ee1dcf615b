package shard

import "sort"

// Map is the shard layout: which shards exist and which shard owns each
// of the 64 hash slots. It is a pure function of the shard id list, so
// every router handed the same shards computes the same map; the
// identity row in each shard database (identity.go) is what keeps a
// router from being handed them in another order.
type Map struct {
	Shards []int // sorted shard ids
	Slots  [NumSlots]int
}

// NewMap lays shardIDs out over the slot table in contiguous runs —
// hash-partitioned keys, range-partitioned slot space.
func NewMap(shardIDs []int) *Map {
	ids := append([]int(nil), shardIDs...)
	sort.Ints(ids)
	m := &Map{Shards: ids}
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
