package relalg

import (
	"slices"
	"strings"

	"repro/internal/sqlparse"
)

// Sort and GroupBy are inherently pipeline breakers, so their cores live
// here (and in agg.go) and SortIter/GroupByIter wrap them; every other
// operator exists only as a streaming iterator (iterops.go) — drain one
// with Collect for a materialized answer.

// ProjectItem names one output column computed by an expression.
type ProjectItem struct {
	Name string
	Expr sqlparse.Expr
}

// OrderKey is one sort key of SortIter.
type OrderKey struct {
	Expr sqlparse.Expr
	Desc bool
}

// sortRelation orders r's tuples by keys (stable): the materialized sort
// core SortIter streams over (see sortTuples).
func sortRelation(r *Relation, keys []OrderKey) (*Relation, error) {
	fns := make([]CompiledExpr, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		fns[i], desc[i] = Compile(k.Expr, r.Schema), k.Desc
	}
	sorted, err := sortTuples(r.Tuples, fns, desc)
	if err != nil {
		return nil, err
	}
	out := NewRelation(r.Name, r.Schema)
	out.Tuples = sorted
	return out, nil
}

// sortKeys is the evaluated key matrix of one sort: vals holds the k key
// values of row i at [i*k, (i+1)*k). typed[c] is KindNumber when column
// c holds only non-NaN numbers and KindString when it holds only
// strings, which lets compare read the raw float64/string; any other
// column (NULLs, NaN, mixed kinds, booleans) goes through Value.SortKey.
type sortKeys struct {
	k     int
	desc  []bool
	vals  []Value
	typed []Kind
	from  int // first column compare reads from vals: 1 when sortEnt.lead carries column 0
}

// eval fills the matrix and counts, per column, the values each typed
// comparator could handle. It stops at the first failing row.
func (s *sortKeys) eval(tuples []Tuple, fns []CompiledExpr, nums, strs []int) error {
	for i := range tuples {
		row := s.vals[i*s.k : (i+1)*s.k]
		for c, fn := range fns {
			v, err := fn(tuples[i])
			if err != nil {
				return err
			}
			row[c] = v
			switch {
			case v.K == KindNumber && v.N == v.N:
				nums[c]++
			case v.K == KindString:
				strs[c]++
			}
		}
	}
	return nil
}

// sortEnt is one entry of the permutation being sorted: a row index and,
// when the first key column is typed numeric, that key (negated for DESC,
// else 0), so most comparisons never leave the slice being sorted.
type sortEnt struct {
	lead float64
	row  int
}

// compare orders rows by the key columns, then by row index: a strict
// total order (SortKey is total), so any comparison sort under it is the
// stable sort.
func (s *sortKeys) compare(a, b sortEnt) int {
	if a.lead != b.lead {
		if a.lead < b.lead {
			return -1
		}
		return 1
	}
	for c := s.from; c < s.k; c++ {
		x, y := &s.vals[a.row*s.k+c], &s.vals[b.row*s.k+c]
		var d int
		switch s.typed[c] {
		case KindNumber:
			if x.N < y.N {
				d = -1
			} else if x.N > y.N {
				d = 1
			}
		case KindString:
			d = strings.Compare(x.S, y.S)
		default:
			d = x.SortKey(*y)
		}
		if d != 0 {
			if s.desc[c] {
				return -d
			}
			return d
		}
	}
	return a.row - b.row
}

// sortTuples is the one sort kernel: it evaluates the key expressions
// once into a key matrix, sorts a row-index permutation with pdqsort
// under sortKeys.compare, and gathers the tuples once at the end.
func sortTuples(tuples []Tuple, fns []CompiledExpr, desc []bool) ([]Tuple, error) {
	n, k := len(tuples), len(fns)
	s := &sortKeys{k: k, desc: desc, vals: make([]Value, n*k), typed: make([]Kind, k)}
	nums, strs := make([]int, k), make([]int, k)
	if err := s.eval(tuples, fns, nums, strs); err != nil {
		return nil, err
	}
	for c := range s.typed {
		switch n {
		case nums[c]:
			s.typed[c] = KindNumber
		case strs[c]:
			s.typed[c] = KindString
		}
	}
	perm := make([]sortEnt, n)
	if k > 0 && s.typed[0] == KindNumber {
		s.from = 1
	}
	for i := range perm {
		perm[i].row = i
		if s.from == 1 {
			perm[i].lead = s.vals[i*k].N
			if desc[0] {
				perm[i].lead = -perm[i].lead
			}
		}
	}
	slices.SortFunc(perm, s.compare)
	out := make([]Tuple, n)
	for i, e := range perm {
		out[i] = tuples[e.row]
	}
	return out, nil
}
