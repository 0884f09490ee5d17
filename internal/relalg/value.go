// Package relalg implements the relational-algebra substrate of the COIN
// prototype's multi-database access engine: typed values, tuples, schemas,
// in-memory relations, a compiler of sqlparse expressions into per-row
// closures (with the one comparison rule every selection applies), and
// the physical operators (selection, projection, nested-loop and hash
// joins, union, distinct, sort, limit, grouping/aggregation) the local
// execution engine composes.
//
// Every operator is a streaming, pull-based Iterator (Volcano model; see
// the Iterator contract in iterator.go) that the planner composes into
// pipelines with early termination; Collect drains one into a
// materialized *Relation. Only pipeline breakers — Sort, the build side
// of a hash join — buffer their input, and those buffers are held in
// memory; GroupBy keeps one first row and the accumulators per group.
package relalg

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind tags a Value.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindNumber
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	}
	return "invalid"
}

// Value is one typed datum. The zero Value is NULL. Field order keeps the
// struct at 32 bytes (the two one-byte fields share the last word).
type Value struct {
	N float64
	S string
	K Kind
	B bool
}

// Null is the NULL value.
var Null = Value{}

// NumV builds a numeric value.
func NumV(v float64) Value { return Value{K: KindNumber, N: v} }

// StrV builds a string value.
func StrV(s string) Value { return Value{K: KindString, S: s} }

// BoolV builds a boolean value.
func BoolV(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// String renders v for display and CSV output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindNumber:
		return strconv.FormatFloat(v.N, 'f', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Equal reports SQL equality; any NULL operand yields false.
func (v Value) Equal(o Value) bool {
	v.checkLive()
	o.checkLive()
	if v.K != o.K || v.K == KindNull {
		return false
	}
	switch v.K {
	case KindNumber:
		return v.N == o.N
	case KindString:
		return v.S == o.S
	case KindBool:
		return v.B == o.B
	}
	return false
}

// Compare orders two values for the range operators; ok is false when
// they are incomparable: a NULL or a NaN involved, or a kind mismatch.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	v.checkLive()
	o.checkLive()
	if v.K == KindNull || o.K == KindNull {
		return 0, false
	}
	if v.K != o.K {
		return 0, false
	}
	switch v.K {
	case KindNumber:
		switch {
		case v.N < o.N:
			return -1, true
		case v.N > o.N:
			return 1, true
		case v.N == o.N:
			return 0, true
		}
		return 0, false // a NaN on either side
	case KindString:
		return strings.Compare(v.S, o.S), true
	case KindBool:
		a, b := 0, 0
		if v.B {
			a = 1
		}
		if o.B {
			b = 1
		}
		return a - b, true
	}
	return 0, false
}

// SortKey gives a total order across kinds, used by ORDER BY, MIN and
// MAX: NULL first, then numbers, strings, booleans; within numbers NaN
// sorts after every other number and equals only NaN — the canonical-NaN
// rule DISTINCT and GROUP BY key by (PostgreSQL's order). Compare keeps
// the range operators' rule, under which NaN is incomparable.
func (v Value) SortKey(o Value) int {
	v.checkLive()
	o.checkLive()
	if v.K != o.K {
		return int(v.K) - int(o.K)
	}
	if vNaN, oNaN := v.N != v.N, o.N != o.N; v.K == KindNumber && (vNaN || oNaN) {
		switch {
		case !vNaN:
			return -1
		case !oNaN:
			return 1
		}
		return 0
	}
	c, _ := v.Compare(o)
	return c
}

// Key returns a string usable as a hash key that distinguishes values of
// different kinds and contents. String payloads are length-prefixed so
// the encoding is self-delimiting: no string content (including the
// \x1f separator Tuple.Key inserts between columns) can make two
// distinct value sequences encode identically. Without the prefix,
// ("a\x1fsb","c") and ("a","b\x1fsc") collided, silently merging rows in
// DISTINCT, GROUP BY, hash joins and bind-join probe dedup.
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00"
	case KindNumber:
		return "n" + strconv.FormatFloat(v.N, 'g', -1, 64)
	case KindString:
		// One-expression concat: the compiler emits a single allocation,
		// and Itoa is allocation-free for the common short strings.
		return "s" + strconv.Itoa(len(v.S)) + ":" + v.S
	case KindBool:
		if v.B {
			return "bt"
		}
		return "bf"
	}
	return "?"
}

// ParseValue converts text into a Value of the given kind. Empty text maps
// to NULL for every kind.
func ParseValue(text string, k Kind) (Value, error) {
	if text == "" {
		return Null, nil
	}
	switch k {
	case KindNumber:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null, fmt.Errorf("relalg: %q is not numeric", text)
		}
		return NumV(f), nil
	case KindString:
		return StrV(text), nil
	case KindBool:
		switch strings.ToUpper(text) {
		case "TRUE", "T", "1":
			return BoolV(true), nil
		case "FALSE", "F", "0":
			return BoolV(false), nil
		}
		return Null, fmt.Errorf("relalg: %q is not boolean", text)
	}
	return Null, fmt.Errorf("relalg: cannot parse into %v", k)
}
