// Package store implements the local data management of the COIN
// prototype's multi-database access engine: an in-memory relational
// database with a catalog (the "dictionary" secondary storage of the
// paper), per-table hash indexes and statistics for the planner's cost
// model, and the typed CSV header and CSV export (filesrc reads the
// files back). Figure 1's second local store, for large temporary data,
// is not reproduced: the engine's pipeline breakers buffer in memory.
//
// It also serves as the substitute for the paper's Oracle source: the
// mediator only ever sees a wrapper exposing schema plus SQL execution, so
// any relational engine with those services is interchangeable.
package store

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/relalg"
)

// Table is one named relation with optional hash indexes and maintained
// statistics.
type Table struct {
	Name   string
	Schema relalg.Schema

	mu      sync.RWMutex
	tuples  []relalg.Tuple
	indexes map[string]map[string][]int // column -> value key -> row ids
}

// NewTable creates an empty table.
func NewTable(name string, schema relalg.Schema) *Table {
	return &Table{Name: name, Schema: schema, indexes: map[string]map[string][]int{}}
}

// Insert appends a row, maintaining indexes.
func (t *Table) Insert(row relalg.Tuple) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("store: table %s: arity %d != %d", t.Name, len(row), len(t.Schema.Columns))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.tuples)
	t.tuples = append(t.tuples, row.Clone())
	for col, idx := range t.indexes {
		if key, ok := IndexKey(row[t.Schema.Index(col)]); ok {
			idx[key] = append(idx[key], id)
		}
	}
	return nil
}

// MustInsert is Insert that panics; for fixtures.
func (t *Table) MustInsert(vals ...relalg.Value) {
	if err := t.Insert(relalg.Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tuples)
}

// CreateIndex builds a hash index on the named column.
func (t *Table) CreateIndex(column string) error {
	ci := t.Schema.Index(column)
	if ci < 0 {
		return fmt.Errorf("store: table %s has no column %s", t.Name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[string][]int{}
	for id, row := range t.tuples {
		if key, ok := IndexKey(row[ci]); ok {
			idx[key] = append(idx[key], id)
		}
	}
	t.indexes[column] = idx
	return nil
}

// HasIndex reports whether the column is indexed.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[column]
	return ok
}

// Scan snapshots the table as a relation. The snapshot aliases the
// table's tuple slice with its capacity capped at the snapshot length:
// existing rows are never mutated in place (Insert only appends, past
// the cap the snapshot can see), and a caller appending to the snapshot
// reallocates instead of writing into the table, so no copy is needed.
func (t *Table) Scan() *relalg.Relation {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := relalg.NewRelation(t.Name, t.Schema)
	out.Tuples = t.tuples[:len(t.tuples):len(t.tuples)]
	return out
}

// IndexKey is the key an index files v under. It follows SQL equality
// (Value.Equal), so an index lookup answers what a scan would: NULL and
// NaN equal nothing and have no key, and −0 files with 0.
func IndexKey(v relalg.Value) (string, bool) {
	if v.IsNull() || v.N != v.N {
		return "", false
	}
	if v.K == relalg.KindNumber && v.N == 0 {
		v.N = 0
	}
	return v.Key(), true
}

// Lookup returns the rows whose column equals v (SQL equality, see
// IndexKey) through the column's index, or by a scan when it has none.
func (t *Table) Lookup(column string, v relalg.Value) (*relalg.Relation, error) {
	ci := t.Schema.Index(column)
	if ci < 0 {
		return nil, fmt.Errorf("store: table %s has no column %s", t.Name, column)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := relalg.NewRelation(t.Name, t.Schema)
	if idx, ok := t.indexes[column]; ok {
		key, _ := IndexKey(v)
		for _, id := range idx[key] {
			out.Tuples = append(out.Tuples, t.tuples[id])
		}
		return out, nil
	}
	for _, row := range t.tuples {
		if row[ci].Equal(v) {
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out, nil
}

// Stats summarizes a table for the cost model.
type Stats struct {
	Rows     int
	Distinct map[string]int // column -> number of distinct values
}

// Stats computes fresh statistics.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := Stats{Rows: len(t.tuples), Distinct: map[string]int{}}
	for ci, col := range t.Schema.Columns {
		seen := map[string]bool{}
		for _, row := range t.tuples {
			seen[row[ci].Key()] = true
		}
		st.Distinct[col.Name] = len(seen)
	}
	return st
}

// DB is a named collection of tables: the catalog half doubles as the
// prototype's dictionary service (schema information for every relation a
// source exports).
type DB struct {
	Name string

	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB(name string) *DB {
	return &DB{Name: name, tables: map[string]*Table{}}
}

// CreateTable registers a new table; it fails if the name exists.
func (db *DB) CreateTable(name string, schema relalg.Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("store: table %s already exists in %s", name, db.Name)
	}
	t := NewTable(name, schema)
	db.tables[name] = t
	return t, nil
}

// MustCreateTable is CreateTable that panics; for fixtures.
func (db *DB) MustCreateTable(name string, schema relalg.Schema) *Table {
	t, err := db.CreateTable(name, schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns the named table, or an error naming the available tables.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %s in %s (have %v)", name, db.Name, db.tableNamesLocked())
	}
	return t, nil
}

// TableNames lists the tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

// tableNamesLocked lists table names; caller must hold at least a read
// lock.
func (db *DB) tableNamesLocked() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
