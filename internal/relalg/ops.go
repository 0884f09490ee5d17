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
// core SortIter streams over, run by par workers (see sortTuples).
func sortRelation(r *Relation, keys []OrderKey, par int) (*Relation, error) {
	fns := make([]CompiledExpr, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		fns[i], desc[i] = Compile(k.Expr, r.Schema), k.Desc
	}
	sorted, err := sortTuples(r.Tuples, fns, desc, par)
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

// eval fills rows [lo, hi) of the matrix and counts, per column, the
// values each typed comparator could handle. It stops at the first
// failing row, so the error of the lowest chunk is the first in row order.
func (s *sortKeys) eval(tuples []Tuple, fns []CompiledExpr, lo, hi int, nums, strs []int) error {
	for i := lo; i < hi; i++ {
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
// stable sort, and a merge of sorted chunks is the sorted whole.
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

// sortTuples is the one sort kernel (ORDER BY in serial and exchange
// form): it evaluates the key expressions once into a key matrix, sorts a row-index permutation with pdqsort under
// sortKeys.compare, and gathers the tuples once at the end. With par > 1
// (callers apply exchangeWorkers), par contiguous chunks are evaluated and
// sorted concurrently and then k-way merged under the same comparator —
// the serial result by construction.
func sortTuples(tuples []Tuple, fns []CompiledExpr, desc []bool, par int) ([]Tuple, error) {
	n, k := len(tuples), len(fns)
	s := &sortKeys{k: k, desc: desc, vals: make([]Value, n*k), typed: make([]Kind, k)}
	par = min(par, n)
	if par < 1 || k == 0 {
		par = 1
	}
	// Chunk p counts its typed values of column c at [p*k+c].
	nums, strs := make([]int, par*k), make([]int, par*k)
	errs := make([]error, par)
	forChunks(n, par, func(p, lo, hi int) {
		errs[p] = s.eval(tuples, fns, lo, hi, nums[p*k:(p+1)*k], strs[p*k:(p+1)*k])
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	for c := range s.typed {
		numeric, text := 0, 0
		for p := 0; p < par; p++ {
			numeric += nums[p*k+c]
			text += strs[p*k+c]
		}
		switch n {
		case numeric:
			s.typed[c] = KindNumber
		case text:
			s.typed[c] = KindString
		}
	}
	perm := make([]sortEnt, n)
	if k > 0 && s.typed[0] == KindNumber {
		s.from = 1
	}
	forChunks(n, par, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i].row = i
			if s.from == 1 {
				perm[i].lead = s.vals[i*k].N
				if desc[0] {
					perm[i].lead = -perm[i].lead
				}
			}
		}
		slices.SortFunc(perm[lo:hi], s.compare)
	})
	// Merge exchange (one chunk: a plain gather): pos[p] walks chunk p
	// up to end[p]; the least head under compare is next.
	out := make([]Tuple, 0, n)
	pos, end := make([]int, par), make([]int, par)
	for p := range pos {
		pos[p], end[p] = n*p/par, n*(p+1)/par
	}
	for len(out) < n {
		best := -1
		for p := range pos {
			if pos[p] < end[p] && (best < 0 || s.compare(perm[pos[p]], perm[pos[best]]) < 0) {
				best = p
			}
		}
		out = append(out, tuples[perm[pos[best]].row])
		pos[best]++
	}
	return out, nil
}
