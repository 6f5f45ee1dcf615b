package shard

import (
	"fmt"
	"sort"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// Each shard database knows which shard of how many it is: one
// admin_config row, key identityKey in section "partition", value
// "<shard id>/<shard count>". The first router to open a database writes
// it; every later router checks it, so a database handed to a router as
// another shard, or to a cell of another size, is refused instead of
// having keys routed to it that its slots do not own. The row is written
// and read on each engine directly, bypassing routing: admin_config is
// otherwise a homed table.
const identityKey = "shard.identity"

// IdentityError reports an engine that cannot serve as the shard it was
// handed as: its identity row names another shard or shard count, or it
// has none but already holds partitioned rows, so it was laid out
// unsharded.
type IdentityError struct {
	// Shard and Count are what the router was given: shard Shard of Count.
	Shard, Count int
	// Have is the engine's identity value ("<id>/<count>"), "" if absent.
	Have string
	// Table, when Have is "", is a partitioned table that holds rows.
	Table string
}

func (e *IdentityError) Error() string {
	if e.Have == "" {
		return fmt.Sprintf("shard: engine given as shard %d/%d has no %s row but holds %s rows: it was laid out unsharded",
			e.Shard, e.Count, identityKey, e.Table)
	}
	return fmt.Sprintf("shard: engine given as shard %d/%d is shard %s; a cell keeps the shards, and the order, it was first opened with",
		e.Shard, e.Count, e.Have)
}

func identityValue(id, count int) string { return fmt.Sprintf("%d/%d", id, count) }

var identityQuery = minidb.Query{Table: schema.TableConfig,
	Where: []minidb.Pred{{Col: "key", Op: minidb.OpEq, Val: minidb.S(identityKey)}}}

// readIdentity returns the identity value query q finds, "" if none.
func readIdentity(q func(minidb.Query) (*minidb.Result, error)) (string, error) {
	res, err := q(identityQuery)
	if err != nil || len(res.Rows) == 0 {
		return "", err
	}
	return res.Rows[0][2].Str(), nil
}

// partitionedTable returns a partitioned table in which query q finds
// rows, "" if none.
func partitionedTable(q func(minidb.Query) (*minidb.Result, error)) (string, error) {
	tables := make([]string, 0, len(keyColumns))
	for t := range keyColumns {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		res, err := q(minidb.Query{Table: t, Limit: 1})
		if err != nil {
			return "", err
		}
		if len(res.Rows) > 0 {
			return t, nil
		}
	}
	return "", nil
}

// checkIdentity reads the identity row through q (an engine, or a
// transaction on it) and returns whether it is absent, or why the
// engine cannot serve as shard id of count.
func checkIdentity(q func(minidb.Query) (*minidb.Result, error), id, count int) (bool, error) {
	have, err := readIdentity(q)
	if err != nil {
		return false, fmt.Errorf("shard: read identity of shard %d: %w", id, err)
	}
	if have != "" {
		if have != identityValue(id, count) {
			return false, &IdentityError{Shard: id, Count: count, Have: have}
		}
		return false, nil
	}
	t, err := partitionedTable(q)
	if err != nil {
		return false, fmt.Errorf("shard: check shard %d for partitioned rows: %w", id, err)
	}
	if t != "" {
		return false, &IdentityError{Shard: id, Count: count, Table: t}
	}
	return true, nil
}

// checkIdentities checks every shard (ids sorted) and refuses the set
// if any engine cannot serve as its shard; only then does it claim the
// shards that have no identity row, in ascending id order. A router
// opening a cell that is already laid out issues reads only.
func checkIdentities(shards map[int]minidb.Engine, ids []int) error {
	var unclaimed []int
	for _, id := range ids {
		absent, err := checkIdentity(shards[id].Query, id, len(ids))
		if err != nil {
			return err
		}
		if absent {
			unclaimed = append(unclaimed, id)
		}
	}
	for _, id := range unclaimed {
		if err := claimIdentity(shards[id], id, len(ids)); err != nil {
			return err
		}
	}
	return nil
}

// claimIdentity writes the identity row in one transaction that first
// checks again, so a peer router that got there first is checked like
// any identity row.
func claimIdentity(eng minidb.Engine, id, count int) error {
	tx := eng.BeginTx()
	absent, err := checkIdentity(tx.Query, id, count)
	if err != nil || !absent {
		tx.Rollback()
		return err
	}
	if _, err := tx.Insert(schema.TableConfig, minidb.Row{
		minidb.S(identityKey), minidb.S("partition"), minidb.S(identityValue(id, count)),
		minidb.S("shard id/shard count of this database"),
	}); err != nil {
		tx.Rollback()
		return fmt.Errorf("shard: write identity of shard %d: %w", id, err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("shard: write identity of shard %d: %w", id, err)
	}
	return nil
}

// CheckUnsharded refuses, with an *IdentityError, an engine whose
// identity row names it one shard of several: a replica given that one
// address would serve part of the catalog as the whole. No row, or the
// row 0/1, passes, so a database laid out unsharded opens as it always
// did. It only reads.
func CheckUnsharded(eng minidb.Engine) error {
	have, err := readIdentity(eng.Query)
	if err != nil {
		return fmt.Errorf("shard: read identity: %w", err)
	}
	if have != "" && have != identityValue(0, 1) {
		return &IdentityError{Shard: 0, Count: 1, Have: have}
	}
	return nil
}
