// Package shard partitions HEDC's metadata tier across multiple database
// nodes to break the Figure 5 ceiling: one shared DBMS saturates at ~120
// ops/s, so replica scaling flattens past 3 nodes (§7.3). Sharding is how
// the SDSS Science Archive migration and the AMI bookkeeping federation
// kept catalog growth from capping throughput — partition the catalog,
// route point lookups to their owner, scatter-gather the rest.
//
// The package has three parts:
//
//   - a shard Map (smap.go): 64 hash slots over the domain partition key,
//     each owned by a shard, computed from the shard id list alone, so
//     every router handed the same shards routes the same way;
//   - an identity row in each shard database (identity.go): which shard
//     of how many it is, written by the first router to open it and
//     checked by every later one. The layout is fixed when a cell is
//     first opened: a cell keeps the shards, their order and their count,
//     and a database laid out unsharded is refused;
//   - a Router (router.go, merge.go, tx.go): implements minidb.Engine and
//     colseg.Runner over N per-shard engines. Key-equality point ops
//     route to the single owner; everything else fans out scatter-gather
//     with per-shard circuit breakers and a deterministic merge that is
//     bit-identical to a single unsharded node (property-tested).
//
// Ordering contract. The merge totally orders rows by the query's
// ORDER BY terms and breaks ties by ascending primary key. A single
// unsharded engine breaks ties by insertion order (rowid), so merged
// results are bit-identical to the oracle whenever rows were inserted in
// primary-key order — true of every HEDC ID sequence (hi-lo allocation
// is monotone per node) and enforced by the property tests and benches.
// Float aggregates merge in ascending shard order; sums are bit-identical
// when the inputs are exactly representable (the analytics tables store
// quantized telemetry), since float addition is associative over exact
// values — the same single-accumulator contract colseg documents.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// NumSlots is the fixed size of the hash slot table. 64 slots over at
// most 8 shards keeps every shard's share a contiguous run of slots.
const NumSlots = 64

// keyColumns maps each sharded domain table to its partition key column.
// Tables absent here are "homed": they live whole on the home shard
// (lowest shard ID), which keeps admin tables — including the hi-lo
// sequence rows in admin_config — single-shard transactional. The one
// exception is the identity row every shard keeps in admin_config, which
// only the router's open reads and writes, on each engine directly.
var keyColumns = map[string]string{
	schema.TableHLE:            "hle_id",
	schema.TableANA:            "ana_id",
	schema.TableRawUnits:       "unit_id",
	schema.TableViews:          "unit_id",
	schema.TableEvents:         "unit_id",
	schema.TableCatalogMembers: "hle_id",
	schema.TableLocEntries:     "item_id",
}

// KeyColumn returns the partition key column for a sharded table, or
// ("", false) for a homed table.
func KeyColumn(table string) (string, bool) {
	c, ok := keyColumns[table]
	return c, ok
}

// SlotOf hashes a partition key value onto a slot. The hash covers the
// value's type tag and canonical bytes, so equal values always land on
// the same slot regardless of how they were constructed.
func SlotOf(v minidb.Value) int {
	h := fnv.New64a()
	var tag [9]byte
	tag[0] = byte(v.T)
	switch v.T {
	case minidb.IntType, minidb.BoolType, minidb.TimeType:
		putU64(tag[1:], uint64(v.I))
		h.Write(tag[:9])
	case minidb.FloatType:
		putU64(tag[1:], math.Float64bits(v.F))
		h.Write(tag[:9])
	case minidb.StringType:
		h.Write(tag[:1])
		h.Write([]byte(v.S))
	case minidb.BytesType:
		h.Write(tag[:1])
		h.Write(v.B)
	default: // NULL
		h.Write(tag[:1])
	}
	return int(h.Sum64() % NumSlots)
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Rowids returned by the router carry their shard in the top 16 bits, so
// Get/Update/Delete on a rowid obtained from a routed query go straight
// back to the owning shard. Shard 0's rowids are unchanged (tag(0,r)=r):
// a one-shard router is rowid-transparent.
const rowidShardShift = 48

// TagRowid embeds shard id into a local rowid.
func TagRowid(shard int, rowid int64) int64 {
	return int64(shard)<<rowidShardShift | rowid
}

// UntagRowid splits a routed rowid into (shard, local rowid).
func UntagRowid(rowid int64) (int, int64) {
	return int(rowid >> rowidShardShift), rowid & (1<<rowidShardShift - 1)
}

// ErrCircuitOpen is the cause inside a ShardUnavailableError when the
// shard's circuit breaker refused the call without trying the wire.
var ErrCircuitOpen = errors.New("shard: circuit open")

// ShardUnavailableError reports that a shard could not serve its part of
// an operation: the breaker was open, the transport failed, or the
// deadline expired. It carries the DBUnavailable structural marker, so
// dm.IsDBUnavailable and the gateway's degraded-mode classification (PR
// 5) treat it exactly like losing the single shared database — which,
// for the rows that shard owns, it is.
type ShardUnavailableError struct {
	Shard int
	Err   error
}

func (e *ShardUnavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %v", e.Shard, e.Err)
}

func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// DBUnavailable is the structural marker shared with dm.DBUnavailableError
// and dbnet.UnavailableError.
func (e *ShardUnavailableError) DBUnavailable() bool { return true }
