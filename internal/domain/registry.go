package domain

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/datalog"
	"repro/internal/relalg"
)

// Registry is the mediator's knowledge base: the domain model, every
// context theory, every registered relation with its schema and elevation
// axioms, and the ancillary-source mappings. Compile turns the whole
// registry into the datalog program the abductive procedure runs against.
type Registry struct {
	Model *Model

	contexts  map[string]*Context
	relations map[string]*relationInfo
	relOrder  []string
	ancillary []Ancillary
	denials   []datalog.Clause
}

type relationInfo struct {
	schema    relalg.Schema
	elevation *Elevation // nil for unelevated (context-free) relations
}

// NewRegistry creates a registry over a domain model.
func NewRegistry(m *Model) *Registry {
	return &Registry{
		Model:     m,
		contexts:  map[string]*Context{},
		relations: map[string]*relationInfo{},
	}
}

// AddContext registers a context theory.
func (r *Registry) AddContext(c *Context) error {
	if _, ok := r.contexts[c.Name]; ok {
		return fmt.Errorf("domain: context %s already registered", c.Name)
	}
	r.contexts[c.Name] = c
	return nil
}

// MustAddContext is AddContext that panics; for fixtures.
func (r *Registry) MustAddContext(c *Context) {
	if err := r.AddContext(c); err != nil {
		panic(err)
	}
}

// Context returns a registered context theory.
func (r *Registry) Context(name string) (*Context, bool) {
	c, ok := r.contexts[name]
	return c, ok
}

// ContextNames lists registered contexts, sorted.
func (r *Registry) ContextNames() []string {
	out := make([]string, 0, len(r.contexts))
	for n := range r.contexts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterRelation records a relation's schema and (optionally) its
// elevation axioms. Registering a new source is exactly this call plus, if
// the source speaks a new context, an AddContext — the paper's
// extensibility claim.
func (r *Registry) RegisterRelation(name string, schema relalg.Schema, elev *Elevation) error {
	if name == "" {
		return fmt.Errorf("domain: relation needs a name")
	}
	if _, ok := r.relations[name]; ok {
		return fmt.Errorf("domain: relation %s already registered", name)
	}
	if elev != nil {
		if err := elev.validate(); err != nil {
			return err
		}
		if elev.Relation != name {
			return fmt.Errorf("domain: elevation names relation %s, registering %s", elev.Relation, name)
		}
		if _, ok := r.contexts[elev.Context]; !ok {
			return fmt.Errorf("domain: relation %s: unknown context %s", name, elev.Context)
		}
		for _, c := range elev.Columns {
			if schema.Index(c.Column) < 0 {
				return fmt.Errorf("domain: relation %s: elevated column %s not in schema", name, c.Column)
			}
			if _, ok := r.Model.Type(c.SemType); !ok {
				return fmt.Errorf("domain: relation %s: unknown semantic type %s", name, c.SemType)
			}
		}
	}
	r.relations[name] = &relationInfo{schema: schema, elevation: elev}
	r.relOrder = append(r.relOrder, name)
	return nil
}

// MustRegisterRelation is RegisterRelation that panics; for fixtures.
func (r *Registry) MustRegisterRelation(name string, schema relalg.Schema, elev *Elevation) {
	if err := r.RegisterRelation(name, schema, elev); err != nil {
		panic(err)
	}
}

// Schema returns the schema of a registered relation.
func (r *Registry) Schema(name string) (relalg.Schema, bool) {
	info, ok := r.relations[name]
	if !ok {
		return relalg.Schema{}, false
	}
	return info.schema, true
}

// RelationNames lists registered relations in registration order.
func (r *Registry) RelationNames() []string {
	return append([]string(nil), r.relOrder...)
}

// AddAncillary maps a conversion-support predicate to a relation.
func (r *Registry) AddAncillary(pred, relation string) error {
	if _, ok := r.relations[relation]; !ok {
		return fmt.Errorf("domain: ancillary %s: relation %s not registered", pred, relation)
	}
	for _, a := range r.ancillary {
		if a.Pred == pred {
			return fmt.Errorf("domain: ancillary %s already mapped", pred)
		}
	}
	r.ancillary = append(r.ancillary, Ancillary{Pred: pred, Relation: relation})
	return nil
}

// MustAddAncillary is AddAncillary that panics; for fixtures.
func (r *Registry) MustAddAncillary(pred, relation string) {
	if err := r.AddAncillary(pred, relation); err != nil {
		panic(err)
	}
}

// AddDenialText registers an integrity constraint: a conjunction (in the
// datalog concrete syntax) over relation names, comparisons and constants
// that must never hold of the sources' data. During mediation, a
// conflict-resolution case whose hypothesized source tuples definitely
// violate a denial is discarded. Example:
//
//	reg.AddDenialText(`r3(C, C, R)`)        // no self-rates
//	reg.AddDenialText(`r1(N, Rev, C), Rev < 0`)
func (r *Registry) AddDenialText(body string) error {
	goals, err := datalog.ParseGoals(body)
	if err != nil {
		return err
	}
	rewritten := make([]datalog.Term, len(goals))
	for i, g := range goals {
		c, ok := g.(datalog.Compound)
		if !ok {
			return fmt.Errorf("domain: denial goal %s is not callable", g)
		}
		if info, isRel := r.relations[c.Functor]; isRel {
			if len(c.Args) != len(info.schema.Columns) {
				return fmt.Errorf("domain: denial uses %s/%d, relation has %d columns",
					c.Functor, len(c.Args), len(info.schema.Columns))
			}
			c = datalog.Compound{Functor: RelPred(c.Functor), Args: c.Args}
		}
		rewritten[i] = c
	}
	r.denials = append(r.denials, datalog.Clause{
		Head: datalog.Comp("ic"),
		Body: rewritten,
	})
	return nil
}

// Denials returns the registered integrity constraints.
func (r *Registry) Denials() []datalog.Clause {
	return append([]datalog.Clause(nil), r.denials...)
}

// RelPred names the abducible datalog predicate of a source relation.
func RelPred(relation string) string { return "rel_" + relation }

// RelationOfPred inverts RelPred; ok is false for non-relation predicates.
func RelationOfPred(pred string) (string, bool) {
	if rest, found := strings.CutPrefix(pred, "rel_"); found {
		return rest, true
	}
	return "", false
}

// SemPred names the generated conversion predicate for a relation column
// under a receiver context.
func SemPred(receiver, relation, column string) string {
	return "sem_" + receiver + "__" + relation + "__" + column
}

func mvalPred(ctx, relation, column, modifier string) string {
	return "mv_" + ctx + "__" + relation + "__" + column + "__" + modifier
}

// NeedsConversion reports whether a column of a relation is elevated to a
// semantic type with at least one modifier (and therefore flows through a
// sem_ predicate during mediation).
func (r *Registry) NeedsConversion(relation, column string) (bool, error) {
	info, ok := r.relations[relation]
	if !ok {
		return false, fmt.Errorf("domain: relation %s not registered", relation)
	}
	if info.elevation == nil {
		return false, nil
	}
	st := info.elevation.SemTypeOf(column)
	if st == "" {
		return false, nil
	}
	mods, err := r.Model.ModifiersOf(st)
	if err != nil {
		return false, err
	}
	return len(mods) > 0, nil
}

// IsAbducible reports whether pred/arity is a source-relation predicate;
// the mediator passes this to the solver.
func (r *Registry) IsAbducible(pred string, arity int) bool {
	rel, ok := RelationOfPred(pred)
	if !ok {
		return false
	}
	info, ok := r.relations[rel]
	return ok && len(info.schema.Columns) == arity
}

// CompileMeta carries human-readable annotations for the compiled rules:
// one note per clause of each annotated predicate, keyed by "name/arity".
// The mediator joins it with derivation traces to explain each branch of a
// mediated query.
type CompileMeta struct {
	ClauseNotes map[string][]string
}

// note registers the note for the next clause of pred/arity.
func (m *CompileMeta) note(pred string, arity int, text string) {
	key := fmt.Sprintf("%s/%d", pred, arity)
	m.ClauseNotes[key] = append(m.ClauseNotes[key], text)
}

// Note returns the note for a clause, if any.
func (m *CompileMeta) Note(key string, clause int) (string, bool) {
	notes := m.ClauseNotes[key]
	if clause < 0 || clause >= len(notes) || notes[clause] == "" {
		return "", false
	}
	return notes[clause], true
}

// Compile generates the datalog program for mediating queries posed in the
// given receiver context: conversion functions, ancillary mappings, and
// per-relation-column modifier-value and conversion-composition rules.
func (r *Registry) Compile(receiver string) (*datalog.Program, error) {
	prog, _, err := r.CompileWithMeta(receiver)
	return prog, err
}

// CompileWithMeta is Compile plus the per-clause annotations.
func (r *Registry) CompileWithMeta(receiver string) (*datalog.Program, *CompileMeta, error) {
	recvCtx, ok := r.contexts[receiver]
	if !ok {
		return nil, nil, fmt.Errorf("domain: unknown receiver context %s", receiver)
	}
	prog := datalog.NewProgram()
	meta := &CompileMeta{ClauseNotes: map[string][]string{}}

	// Conversion functions.
	for _, mod := range r.conversionModifiers() {
		conv, _ := r.Model.ConversionFor(mod)
		prog.Add(conv.Clauses...)
		for i := range conv.Clauses {
			if i == 0 {
				meta.note(CvtPred(mod), 4, "")
				continue
			}
			meta.note(CvtPred(mod), 4, fmt.Sprintf("apply %s conversion (rule %d)", mod, i))
		}
	}

	// Ancillary mappings: pred(X...) :- rel_R(X...).
	for _, a := range r.ancillary {
		info := r.relations[a.Relation]
		n := len(info.schema.Columns)
		args := make([]datalog.Term, n)
		for i := range args {
			args[i] = datalog.NewVar(fmt.Sprintf("X%d", i))
		}
		prog.Add(datalog.Clause{
			Head: datalog.Comp(a.Pred, args...),
			Body: []datalog.Term{datalog.Comp(RelPred(a.Relation), args...)},
		})
	}

	// Per-relation rules.
	for _, rel := range r.relOrder {
		info := r.relations[rel]
		if info.elevation == nil {
			continue
		}
		for _, ec := range info.elevation.Columns {
			if err := r.compileColumn(prog, meta, rel, info, ec, recvCtx); err != nil {
				return nil, nil, err
			}
		}
	}
	return prog, meta, nil
}

func (r *Registry) conversionModifiers() []string {
	out := make([]string, 0, len(r.Model.conversions))
	for m := range r.Model.conversions {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// compileColumn emits, for one elevated column, the modifier-value rules
// in the source context and the sem_ rule composing one conversion per
// modifier from source to receiver values.
func (r *Registry) compileColumn(prog *datalog.Program, meta *CompileMeta, rel string, info *relationInfo, ec ElevatedColumn, recvCtx *Context) error {
	mods, err := r.Model.ModifiersOf(ec.SemType)
	if err != nil {
		return err
	}
	if len(mods) == 0 {
		return nil // context-insensitive column: identity, no rules needed
	}
	srcCtx := r.contexts[info.elevation.Context]
	schema := info.schema
	n := len(schema.Columns)

	// Shared argument variables A0..A(n-1) for the relation's columns.
	argVars := make([]datalog.Term, n)
	for i := range argVars {
		argVars[i] = datalog.NewVar(fmt.Sprintf("A%d", i))
	}

	// Modifier-value rules in the source context.
	for _, mod := range mods {
		if err := r.compileMval(prog, meta, rel, srcCtx, schema, argVars, ec, mod); err != nil {
			return err
		}
	}

	// The sem_ rule: chain conversions in canonical modifier order.
	colIdx := schema.Index(ec.Column)
	cur := argVars[colIdx] // V0 = raw column value
	var body []datalog.Term
	for j, mod := range mods {
		decl, ok := recvCtx.Decl(ec.SemType, mod)
		if !ok {
			return fmt.Errorf("domain: receiver context %s does not declare %s.%s", recvCtx.Name, ec.SemType, mod)
		}
		tgt, err := receiverConst(recvCtx.Name, decl)
		if err != nil {
			return err
		}
		if _, ok := r.Model.ConversionFor(mod); !ok {
			return fmt.Errorf("domain: no conversion registered for modifier %s", mod)
		}
		src := datalog.NewVar(fmt.Sprintf("S%d", j))
		next := datalog.NewVar(fmt.Sprintf("V%d", j+1))
		body = append(body,
			datalog.Comp(mvalPred(srcCtx.Name, rel, ec.Column, mod), append(append([]datalog.Term(nil), argVars...), src)...),
			datalog.Comp(CvtPred(mod), cur, src, tgt, next),
		)
		cur = next
	}
	head := datalog.Comp(SemPred(recvCtx.Name, rel, ec.Column), append(append([]datalog.Term(nil), argVars...), cur)...)
	prog.Add(datalog.Clause{Head: head, Body: body})
	meta.note(SemPred(recvCtx.Name, rel, ec.Column), n+1, fmt.Sprintf(
		"convert %s.%s (%s, context %s) into context %s",
		rel, ec.Column, ec.SemType, srcCtx.Name, recvCtx.Name))
	return nil
}

// receiverConst extracts the single constant value a receiver declaration
// must provide.
func receiverConst(ctxName string, decl *ModifierDecl) (datalog.Term, error) {
	if len(decl.Cases) != 1 || decl.Cases[0].CondModifier != "" {
		return nil, fmt.Errorf("domain: receiver context %s: %s.%s must be a single unconditional case",
			ctxName, decl.SemType, decl.Modifier)
	}
	v := decl.Cases[0].Value
	if v.Const == nil {
		return nil, fmt.Errorf("domain: receiver context %s: %s.%s must be constant (attribute values have no meaning for a receiver)",
			ctxName, decl.SemType, decl.Modifier)
	}
	return v.Const, nil
}

// compileMval emits the modifier-value rules for one (relation, column,
// modifier) in the source context, making the Case chain disjoint.
func (r *Registry) compileMval(prog *datalog.Program, meta *CompileMeta, rel string, srcCtx *Context, schema relalg.Schema, argVars []datalog.Term, ec ElevatedColumn, mod string) error {
	decl, ok := srcCtx.Decl(ec.SemType, mod)
	if !ok {
		return fmt.Errorf("domain: context %s does not declare %s.%s (needed by %s.%s)",
			srcCtx.Name, ec.SemType, mod, rel, ec.Column)
	}
	pred := mvalPred(srcCtx.Name, rel, ec.Column, mod)

	// condGoals builds the goals testing one case condition with the given
	// operator (used both positively and negated). A modifier condition
	// resolves through that modifier's own mval rules; an attribute
	// condition compares the raw column value.
	condGoals := func(cs Case, op string, condVarIdx int) ([]datalog.Term, error) {
		goalOp, err := condOp(op)
		if err != nil {
			return nil, err
		}
		if cs.CondAttribute != "" {
			idx := schema.Index(cs.CondAttribute)
			if idx < 0 {
				return nil, fmt.Errorf("domain: context %s: %s.%s conditions on attribute %s, which relation %s lacks",
					srcCtx.Name, ec.SemType, mod, cs.CondAttribute, rel)
			}
			return []datalog.Term{datalog.Comp(goalOp, argVars[idx], cs.CondValue)}, nil
		}
		cv := datalog.NewVar(fmt.Sprintf("C%d", condVarIdx))
		return []datalog.Term{
			datalog.Comp(mvalPred(srcCtx.Name, rel, ec.Column, cs.CondModifier), append(append([]datalog.Term(nil), argVars...), cv)...),
			datalog.Comp(goalOp, cv, cs.CondValue),
		}, nil
	}

	for i, cs := range decl.Cases {
		var body []datalog.Term
		cvar := 0
		// Negations of all earlier conditions.
		for _, prev := range decl.Cases[:i] {
			negOp, err := negateOp(prev.CondOp)
			if err != nil {
				return err
			}
			goals, err := condGoals(prev, negOp, cvar)
			if err != nil {
				return err
			}
			body = append(body, goals...)
			cvar++
		}
		// This case's own condition.
		if cs.conditional() {
			if cs.CondModifier == mod {
				return fmt.Errorf("domain: context %s: %s.%s case %d conditions on itself",
					srcCtx.Name, ec.SemType, mod, i)
			}
			goals, err := condGoals(cs, cs.CondOp, cvar)
			if err != nil {
				return err
			}
			body = append(body, goals...)
		}
		// Head value.
		var val datalog.Term
		if cs.Value.Const != nil {
			val = cs.Value.Const
		} else {
			idx := schema.Index(cs.Value.Attribute)
			if idx < 0 {
				return fmt.Errorf("domain: context %s: %s.%s takes value from attribute %s, which relation %s lacks",
					srcCtx.Name, ec.SemType, mod, cs.Value.Attribute, rel)
			}
			val = argVars[idx]
		}
		head := datalog.Comp(pred, append(append([]datalog.Term(nil), argVars...), val)...)
		prog.Add(datalog.Clause{Head: head, Body: body})
		meta.note(pred, len(argVars)+1, describeCase(srcCtx.Name, rel, ec, mod, cs, i))
	}
	return nil
}

// describeCase renders one modifier-declaration arm for explanations.
func describeCase(ctx, rel string, ec ElevatedColumn, mod string, cs Case, idx int) string {
	var val string
	if cs.Value.Const != nil {
		val = cs.Value.Const.String()
	} else {
		val = "value of attribute " + cs.Value.Attribute
	}
	head := fmt.Sprintf("context %s: %s of %s.%s = %s", ctx, mod, rel, ec.Column, val)
	switch {
	case cs.CondModifier != "":
		return fmt.Sprintf("%s when %s %s %s", head, cs.CondModifier, cs.CondOp, cs.CondValue)
	case cs.CondAttribute != "":
		return fmt.Sprintf("%s when %s %s %s", head, cs.CondAttribute, cs.CondOp, cs.CondValue)
	case idx > 0:
		return head + " otherwise"
	default:
		return head
	}
}
