package domain

import (
	"fmt"

	"repro/internal/datalog"
)

// ValueSpec says where a modifier's value comes from within a context.
type ValueSpec struct {
	// Const is the value when the modifier is context-constant
	// (e.g. currency = "USD" in context c2).
	Const datalog.Term
	// Attribute names a column of the elevated relation providing the
	// value per tuple (e.g. currency taken from rl.currency in c1).
	// Exactly one of Const and Attribute is set.
	Attribute string
}

// ConstSpec builds a constant ValueSpec from a Go value.
func ConstSpec(v interface{}) ValueSpec {
	switch v := v.(type) {
	case string:
		return ValueSpec{Const: datalog.Str(v)}
	case float64:
		return ValueSpec{Const: datalog.Number(v)}
	case int:
		return ValueSpec{Const: datalog.Number(float64(v))}
	case datalog.Term:
		return ValueSpec{Const: v}
	default:
		panic(fmt.Sprintf("domain: ConstSpec: unsupported value %T", v))
	}
}

// AttrSpec builds an attribute-valued ValueSpec.
func AttrSpec(column string) ValueSpec { return ValueSpec{Attribute: column} }

func (v ValueSpec) validate() error {
	if (v.Const == nil) == (v.Attribute == "") {
		return fmt.Errorf("domain: value spec must set exactly one of Const and Attribute")
	}
	return nil
}

// Case is one conditional arm of a modifier declaration. The condition
// compares either the value of another modifier of the same object
// (CondModifier) or a raw attribute of the elevated relation
// (CondAttribute) against a constant; a Case with neither is unconditional
// (the default arm). Cases are ordered like a Prolog if-then-else chain:
// arm i applies only when arms 1..i-1 do not, which the compiler makes
// explicit by negating their conditions, so the generated mediation
// branches are mutually exclusive (the paper's USD / JPY / other split).
type Case struct {
	CondModifier  string
	CondAttribute string
	CondOp        string // "=", "<>", "<", "<=", ">", ">="
	CondValue     datalog.Term
	Value         ValueSpec
}

// conditional reports whether the case has a condition.
func (c Case) conditional() bool { return c.CondModifier != "" || c.CondAttribute != "" }

// ModifierDecl assigns a modifier of a semantic type within a context.
type ModifierDecl struct {
	SemType  string
	Modifier string
	Cases    []Case
}

// Context is a context theory: the modifier assignments that make the
// implicit semantics of a source's (or receiver's) data explicit.
type Context struct {
	Name  string
	decls map[string]*ModifierDecl
	order []string
}

// NewContext creates an empty context theory.
func NewContext(name string) *Context {
	return &Context{Name: name, decls: map[string]*ModifierDecl{}}
}

func declKey(semType, modifier string) string { return semType + "\x00" + modifier }

// Declare adds a modifier declaration to the context.
func (c *Context) Declare(d *ModifierDecl) error {
	if d.SemType == "" || d.Modifier == "" {
		return fmt.Errorf("domain: context %s: declaration needs type and modifier", c.Name)
	}
	if len(d.Cases) == 0 {
		return fmt.Errorf("domain: context %s: %s.%s has no cases", c.Name, d.SemType, d.Modifier)
	}
	for i, cs := range d.Cases {
		if err := cs.Value.validate(); err != nil {
			return fmt.Errorf("domain: context %s: %s.%s case %d: %w", c.Name, d.SemType, d.Modifier, i, err)
		}
		if cs.CondModifier != "" && cs.CondAttribute != "" {
			return fmt.Errorf("domain: context %s: %s.%s case %d: condition on both modifier and attribute", c.Name, d.SemType, d.Modifier, i)
		}
		if cs.conditional() && (cs.CondOp == "" || cs.CondValue == nil) {
			return fmt.Errorf("domain: context %s: %s.%s case %d: condition needs op and value", c.Name, d.SemType, d.Modifier, i)
		}
		if !cs.conditional() && i != len(d.Cases)-1 {
			return fmt.Errorf("domain: context %s: %s.%s: unconditional case %d must be last", c.Name, d.SemType, d.Modifier, i)
		}
	}
	if last := d.Cases[len(d.Cases)-1]; last.conditional() {
		return fmt.Errorf("domain: context %s: %s.%s: last case must be unconditional (default)", c.Name, d.SemType, d.Modifier)
	}
	k := declKey(d.SemType, d.Modifier)
	if _, ok := c.decls[k]; ok {
		return fmt.Errorf("domain: context %s: %s.%s declared twice", c.Name, d.SemType, d.Modifier)
	}
	c.decls[k] = d
	c.order = append(c.order, k)
	return nil
}

// MustDeclare is Declare that panics; for fixtures.
func (c *Context) MustDeclare(d *ModifierDecl) {
	if err := c.Declare(d); err != nil {
		panic(err)
	}
}

// DeclareConst is a convenience for the common constant assignment.
func (c *Context) DeclareConst(semType, modifier string, value interface{}) error {
	return c.Declare(&ModifierDecl{
		SemType:  semType,
		Modifier: modifier,
		Cases:    []Case{{Value: ConstSpec(value)}},
	})
}

// Decl looks up the declaration for semType.modifier, walking no ISA
// hierarchy (the Registry resolves inheritance before asking).
func (c *Context) Decl(semType, modifier string) (*ModifierDecl, bool) {
	d, ok := c.decls[declKey(semType, modifier)]
	return d, ok
}

// negateOp maps a condition operator to its complement, used when
// compiling the if-then-else chain of Cases into disjoint datalog rules.
func negateOp(op string) (string, error) {
	switch op {
	case "=":
		return "\\=", nil
	case "<>", "\\=":
		return "=", nil
	case "<":
		return ">=", nil
	case ">=":
		return "<", nil
	case ">":
		return "=<", nil
	case "<=", "=<":
		return ">", nil
	}
	return "", fmt.Errorf("domain: cannot negate operator %q", op)
}

// condOp maps surface operators to datalog goal functors.
func condOp(op string) (string, error) {
	switch op {
	case "=", "<", ">":
		return op, nil
	case "<>", "\\=":
		return "\\=", nil
	case "<=", "=<":
		return "=<", nil
	case ">=":
		return ">=", nil
	}
	return "", fmt.Errorf("domain: unknown condition operator %q", op)
}
