// Package domain implements the COIN data model: the shared domain model
// of semantic types with context-dependent modifiers, per-context modifier
// assignments (context theories), elevation axioms that tie source-schema
// columns to semantic types, and conversion functions between modifier
// values. A Registry holding all of these compiles into a datalog program
// that the context mediator (internal/core) queries abductively.
//
// The paper's running example is expressed as: a semantic type
// companyFinancials with modifiers scaleFactor and currency; context c1
// assigning scaleFactor 1000 when currency is JPY and 1 otherwise, with
// currency taken from the tuple's own currency attribute; context c2
// assigning the constants USD and 1; elevation axioms mapping rl.revenue
// and r2.expenses to companyFinancials; and conversion functions "multiply
// by the factor ratio" for scaleFactor and "multiply by the ancillary
// exchange rate" for currency.
package domain

import (
	"fmt"

	"repro/internal/datalog"
)

// SemType is a semantic type ("rich type") of the domain model. Modifiers
// name the context-dependent aspects of its values, in canonical order:
// conversions are applied modifier by modifier in this order (the paper
// scales before converting currency).
type SemType struct {
	Name      string
	Parent    string // optional ISA parent
	Modifiers []string
}

// Model is the shared domain model: the vocabulary common to all contexts.
type Model struct {
	types       map[string]*SemType
	conversions map[string]*Conversion
}

// NewModel returns an empty domain model.
func NewModel() *Model {
	return &Model{types: map[string]*SemType{}, conversions: map[string]*Conversion{}}
}

// AddType registers a semantic type.
func (m *Model) AddType(t *SemType) error {
	if t.Name == "" {
		return fmt.Errorf("domain: semantic type needs a name")
	}
	if _, ok := m.types[t.Name]; ok {
		return fmt.Errorf("domain: semantic type %s already defined", t.Name)
	}
	if t.Parent != "" {
		if _, ok := m.types[t.Parent]; !ok {
			return fmt.Errorf("domain: semantic type %s: unknown parent %s", t.Name, t.Parent)
		}
	}
	m.types[t.Name] = t
	return nil
}

// MustAddType is AddType that panics; for fixtures.
func (m *Model) MustAddType(t *SemType) {
	if err := m.AddType(t); err != nil {
		panic(err)
	}
}

// Type looks up a semantic type by name.
func (m *Model) Type(name string) (*SemType, bool) {
	t, ok := m.types[name]
	return t, ok
}

// ModifiersOf returns the modifiers of a type including inherited ones
// (parents first), preserving canonical order.
func (m *Model) ModifiersOf(name string) ([]string, error) {
	var chain []*SemType
	seen := map[string]bool{}
	for cur := name; cur != ""; {
		if seen[cur] {
			return nil, fmt.Errorf("domain: ISA cycle through %s", cur)
		}
		seen[cur] = true
		t, ok := m.types[cur]
		if !ok {
			return nil, fmt.Errorf("domain: unknown semantic type %s", cur)
		}
		chain = append(chain, t)
		cur = t.Parent
	}
	var out []string
	have := map[string]bool{}
	for i := len(chain) - 1; i >= 0; i-- { // parents first
		for _, mod := range chain[i].Modifiers {
			if !have[mod] {
				have[mod] = true
				out = append(out, mod)
			}
		}
	}
	return out, nil
}

// Conversion defines how a value is transformed when a modifier's value
// differs between source and receiver. Clauses define the predicate
// cvt_<modifier>(V, From, To, VOut); the first clause conventionally
// handles From = To as the identity.
type Conversion struct {
	Modifier string
	Clauses  []datalog.Clause
}

// AddConversion registers the conversion function for a modifier.
func (m *Model) AddConversion(c *Conversion) error {
	if c.Modifier == "" {
		return fmt.Errorf("domain: conversion needs a modifier name")
	}
	if _, ok := m.conversions[c.Modifier]; ok {
		return fmt.Errorf("domain: conversion for %s already defined", c.Modifier)
	}
	m.conversions[c.Modifier] = c
	return nil
}

// MustAddConversion is AddConversion that panics; for fixtures.
func (m *Model) MustAddConversion(c *Conversion) {
	if err := m.AddConversion(c); err != nil {
		panic(err)
	}
}

// ConversionFor looks up a conversion by modifier.
func (m *Model) ConversionFor(modifier string) (*Conversion, bool) {
	c, ok := m.conversions[modifier]
	return c, ok
}

// CvtPred names the conversion predicate for a modifier.
func CvtPred(modifier string) string { return "cvt_" + modifier }

// RatioConversion builds the standard multiplicative conversion used for
// scale factors:
//
//	cvt_m(V, F, F, V).
//	cvt_m(V, F1, F2, V2) :- F1 \= F2, V2 is V * F1 / F2.
func RatioConversion(modifier string) *Conversion {
	pred := CvtPred(modifier)
	v, f, f1, f2, v2 := datalog.NewVar("V"), datalog.NewVar("F"), datalog.NewVar("F1"), datalog.NewVar("F2"), datalog.NewVar("V2")
	return &Conversion{
		Modifier: modifier,
		Clauses: []datalog.Clause{
			{Head: datalog.Comp(pred, v, f, f, v)},
			{
				Head: datalog.Comp(pred, v, f1, f2, v2),
				Body: []datalog.Term{
					datalog.Comp("\\=", f1, f2),
					datalog.Comp("is", v2, datalog.Comp(datalog.FuncDiv, datalog.Comp(datalog.FuncMul, v, f1), f2)),
				},
			},
		},
	}
}

// LookupConversion builds the ancillary-source conversion used for
// currencies: when the modifier values differ, the value is multiplied by
// a rate obtained from ancillaryPred(From, To, Rate):
//
//	cvt_m(V, C, C, V).
//	cvt_m(V, C1, C2, V2) :- C1 \= C2, anc(C1, C2, R), V2 is V * R.
func LookupConversion(modifier, ancillaryPred string) *Conversion {
	pred := CvtPred(modifier)
	v, c, c1, c2, r, v2 := datalog.NewVar("V"), datalog.NewVar("C"), datalog.NewVar("C1"), datalog.NewVar("C2"), datalog.NewVar("R"), datalog.NewVar("V2")
	return &Conversion{
		Modifier: modifier,
		Clauses: []datalog.Clause{
			{Head: datalog.Comp(pred, v, c, c, v)},
			{
				Head: datalog.Comp(pred, v, c1, c2, v2),
				Body: []datalog.Term{
					datalog.Comp("\\=", c1, c2),
					datalog.Comp(ancillaryPred, c1, c2, r),
					datalog.Comp("is", v2, datalog.Comp(datalog.FuncMul, v, r)),
				},
			},
		},
	}
}

// PivotLookupConversion extends LookupConversion with a two-hop fallback
// through a pivot value (e.g. converting GBP to CHF via USD when the
// ancillary source quotes no direct rate):
//
//	cvt_m(V, C, C, V).
//	cvt_m(V, C1, C2, V2) :- C1 \= C2, anc(C1, C2, R), V2 is V * R.
//	cvt_m(V, C1, C2, V2) :- C1 \= C2, C1 \= pivot, C2 \= pivot,
//	                        anc(C1, pivot, R1), anc(pivot, C2, R2),
//	                        V2 is V * R1 * R2.
//
// Both the direct and the two-hop clause produce a mediated branch; the
// branch whose rate lookup matches no ancillary tuple contributes nothing
// at execution time, so the union stays correct either way — abduction
// hypothesizes the access paths, execution validates them.
func PivotLookupConversion(modifier, ancillaryPred string, pivot datalog.Term) *Conversion {
	base := LookupConversion(modifier, ancillaryPred)
	pred := CvtPred(modifier)
	v, c1, c2 := datalog.NewVar("V"), datalog.NewVar("C1"), datalog.NewVar("C2")
	r1, r2, v2 := datalog.NewVar("R1"), datalog.NewVar("R2"), datalog.NewVar("V2")
	twoHop := datalog.Clause{
		Head: datalog.Comp(pred, v, c1, c2, v2),
		Body: []datalog.Term{
			datalog.Comp("\\=", c1, c2),
			datalog.Comp("\\=", c1, pivot),
			datalog.Comp("\\=", c2, pivot),
			datalog.Comp(ancillaryPred, c1, pivot, r1),
			datalog.Comp(ancillaryPred, pivot, c2, r2),
			datalog.Comp("is", v2, datalog.Comp(datalog.FuncMul, datalog.Comp(datalog.FuncMul, v, r1), r2)),
		},
	}
	base.Clauses = append(base.Clauses, twoHop)
	return base
}

// AffineConversion builds a fixed affine conversion V2 = V*scale + offset
// for a pair of modifier values, plus identity. It covers unit conversions
// such as temperature scales or fiscal-year offsets:
//
//	cvt_m(V, A, A, V).
//	cvt_m(V, from, to, V2) :- V2 is V * scale + offset.
//	cvt_m(V, to, from, V2) :- V2 is (V - offset) / scale.
func AffineConversion(modifier string, from, to datalog.Term, scale, offset float64) *Conversion {
	pred := CvtPred(modifier)
	v, a, v2 := datalog.NewVar("V"), datalog.NewVar("A"), datalog.NewVar("V2")
	fwd := datalog.Comp("is", v2, datalog.Comp(datalog.FuncAdd,
		datalog.Comp(datalog.FuncMul, v, datalog.Number(scale)), datalog.Number(offset)))
	bwd := datalog.Comp("is", v2, datalog.Comp(datalog.FuncDiv,
		datalog.Comp(datalog.FuncSub, v, datalog.Number(offset)), datalog.Number(scale)))
	return &Conversion{
		Modifier: modifier,
		Clauses: []datalog.Clause{
			{Head: datalog.Comp(pred, v, a, a, v)},
			{Head: datalog.Comp(pred, v, from, to, v2), Body: []datalog.Term{fwd}},
			{Head: datalog.Comp(pred, v, to, from, v2), Body: []datalog.Term{bwd}},
		},
	}
}
