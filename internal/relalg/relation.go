package relalg

import (
	"fmt"
	"strings"
	"unsafe"
)

// Column describes one attribute of a relation. Names may be plain
// ("cname") in base relations or qualified ("rl.cname") in intermediate
// results of the executor.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from name:type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

// Index returns the position of the named column, or -1. Lookup is exact
// first; if the name is unqualified and exactly one qualified column has
// that suffix, that column matches (so `cname` finds `rl.cname` in a
// single-table context).
func (s Schema) Index(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	if !strings.Contains(name, ".") {
		found := -1
		for i, c := range s.Columns {
			if strings.HasSuffix(c.Name, "."+name) {
				if found >= 0 {
					return -1 // ambiguous
				}
				found = i
			}
		}
		return found
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Qualify returns a copy of the schema with every unqualified column name
// prefixed by binding.
func (s Schema) Qualify(binding string) Schema {
	cols := make([]Column, len(s.Columns))
	for i, c := range s.Columns {
		name := c.Name
		if !strings.Contains(name, ".") {
			name = binding + "." + name
		}
		cols[i] = Column{Name: name, Type: c.Type}
	}
	return Schema{Columns: cols}
}

// Concat appends another schema's columns.
func (s Schema) Concat(o Schema) Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return Schema{Columns: cols}
}

// Equal reports schema equality by names and types.
func (s Schema) Equal(o Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// Tuple is one row; len(Tuple) == len(Schema.Columns).
type Tuple []Value

// FullKey builds a hash key over the whole tuple.
func (t Tuple) FullKey() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Clone copies the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Relation is an in-memory table of tuples with a schema and an optional
// name.
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// NewRelation builds an empty relation.
func NewRelation(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Add appends a row after arity checking.
func (r *Relation) Add(t Tuple) error {
	if len(t) != len(r.Schema.Columns) {
		return fmt.Errorf("relalg: relation %s: tuple arity %d != schema arity %d",
			r.Name, len(t), len(r.Schema.Columns))
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAdd is Add that panics; for fixtures.
func (r *Relation) MustAdd(vals ...Value) {
	if err := r.Add(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Footprints the retained-bytes estimates are built from, read off the
// types so a layout change cannot leave the cache budget under-counting.
const (
	valueBytes  = int64(unsafe.Sizeof(Value{}))
	tupleBytes  = int64(unsafe.Sizeof(Tuple{})) // one row header
	keyEntBytes = int64(unsafe.Sizeof(keyEnt{}))
)

// approxBytes estimates the resident size of the tuple's data: the fixed
// Value footprint per datum plus string payloads. Its row header is the
// holder's to count.
func (t Tuple) approxBytes() int64 {
	total := int64(len(t)) * valueBytes
	for _, v := range t {
		if v.K == KindString {
			total += int64(len(v.S))
		}
	}
	return total
}

// ApproxBytes estimates the resident size of the relation's rows (header
// and data). The session cache uses it to budget retained answers; it is
// an estimate, not an exact accounting.
func (r *Relation) ApproxBytes() int64 {
	total := int64(len(r.Tuples)) * tupleBytes
	for _, t := range r.Tuples {
		total += t.approxBytes()
	}
	return total
}

// Qualify returns a copy whose columns are qualified with binding.
func (r *Relation) Qualify(binding string) *Relation {
	return &Relation{Name: r.Name, Schema: r.Schema.Qualify(binding), Tuples: r.Tuples}
}

// String renders the relation as an aligned text table, rows in current
// order.
func (r *Relation) String() string {
	names := r.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(r.Tuples))
	for ti, t := range r.Tuples {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
			if len(row[i]) > widths[i] {
				widths[i] = len(row[i])
			}
		}
		cells[ti] = row
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
