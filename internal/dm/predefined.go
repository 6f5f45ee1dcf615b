package dm

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/minidb"
	"repro/internal/schema"
)

// Predefined queries (§4.1): the administrative section stores "predefined
// queries and reports" so that casual users get curated searches ("users
// can use either visual tools ..., predefined queries, or their own SQL
// queries", §1). A predefined query is a named, persisted HLEFilter.

const predefPrefix = "query."

// SavePredefinedQuery persists (or replaces) a named filter.
func (d *DM) SavePredefinedQuery(name, description string, f HLEFilter) error {
	if name == "" || strings.ContainsAny(name, " \t\n.") {
		return fmt.Errorf("dm: invalid predefined query name %q", name)
	}
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	key := predefPrefix + name
	res, err := d.query(minidb.Query{
		Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "key", Op: minidb.OpEq, Val: minidb.S(key)}},
	})
	if err != nil {
		return err
	}
	row := minidb.Row{
		minidb.S(key), minidb.S("query"), minidb.S(string(blob)), minidb.S(description),
	}
	if len(res.RowIDs) > 0 {
		err = d.meta.Update(schema.TableConfig, res.RowIDs[0], row)
	} else {
		_, err = d.meta.Insert(schema.TableConfig, row)
	}
	if err == nil {
		d.stats.Edits.Add(1)
	}
	return err
}

// PredefinedQuery loads a named filter.
func (d *DM) PredefinedQuery(name string) (HLEFilter, string, error) {
	res, err := d.query(minidb.Query{
		Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "key", Op: minidb.OpEq, Val: minidb.S(predefPrefix + name)}},
	})
	if err != nil {
		return HLEFilter{}, "", err
	}
	if len(res.Rows) == 0 {
		return HLEFilter{}, "", fmt.Errorf("dm: no predefined query %q", name)
	}
	var f HLEFilter
	if err := json.Unmarshal([]byte(res.Rows[0][2].Str()), &f); err != nil {
		return HLEFilter{}, "", fmt.Errorf("dm: corrupt predefined query %q: %w", name, err)
	}
	return f, res.Rows[0][3].Str(), nil
}

// PredefinedQueryInfo names a stored query for listings.
type PredefinedQueryInfo struct {
	Name        string
	Description string
}

// ListPredefinedQueries returns the stored query names, sorted.
func (d *DM) ListPredefinedQueries() ([]PredefinedQueryInfo, error) {
	res, err := d.query(minidb.Query{
		Table: schema.TableConfig,
		Where: []minidb.Pred{{Col: "section", Op: minidb.OpEq, Val: minidb.S("query")}},
	})
	if err != nil {
		return nil, err
	}
	out := make([]PredefinedQueryInfo, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, PredefinedQueryInfo{
			Name:        strings.TrimPrefix(row[0].Str(), predefPrefix),
			Description: row[3].Str(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
