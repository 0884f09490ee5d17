package domain

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/relalg"
)

// paperModel builds the domain model of the paper's example: company
// names, company financials with scaleFactor and currency modifiers,
// currency symbols, and exchange rates.
func paperModel() *Model {
	m := NewModel()
	m.MustAddType(&SemType{Name: "companyName"})
	m.MustAddType(&SemType{Name: "currencyType"})
	m.MustAddType(&SemType{Name: "companyFinancials", Modifiers: []string{"scaleFactor", "currency"}})
	m.MustAddConversion(RatioConversion("scaleFactor"))
	m.MustAddConversion(LookupConversion("currency", "rate"))
	return m
}

func r1Schema() relalg.Schema {
	return relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "currency", Type: relalg.KindString},
	)
}

func r2Schema() relalg.Schema {
	return relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "expenses", Type: relalg.KindNumber},
	)
}

func r3Schema() relalg.Schema {
	return relalg.NewSchema(
		relalg.Column{Name: "fromCur", Type: relalg.KindString},
		relalg.Column{Name: "toCur", Type: relalg.KindString},
		relalg.Column{Name: "rate", Type: relalg.KindNumber},
	)
}

// paperContexts returns c1 (source 1) and c2 (source 2 and the receiver).
func paperContexts() (*Context, *Context) {
	c1 := NewContext("c1")
	c1.MustDeclare(&ModifierDecl{
		SemType:  "companyFinancials",
		Modifier: "scaleFactor",
		Cases: []Case{
			{CondModifier: "currency", CondOp: "=", CondValue: datalog.Str("JPY"), Value: ConstSpec(1000)},
			{Value: ConstSpec(1)},
		},
	})
	c1.MustDeclare(&ModifierDecl{
		SemType:  "companyFinancials",
		Modifier: "currency",
		Cases:    []Case{{Value: AttrSpec("currency")}},
	})
	c2 := NewContext("c2")
	if err := c2.DeclareConst("companyFinancials", "scaleFactor", 1); err != nil {
		panic(err)
	}
	if err := c2.DeclareConst("companyFinancials", "currency", "USD"); err != nil {
		panic(err)
	}
	return c1, c2
}

// paperRegistry assembles the whole Figure 2 knowledge base.
func paperRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry(paperModel())
	c1, c2 := paperContexts()
	reg.MustAddContext(c1)
	reg.MustAddContext(c2)
	reg.MustRegisterRelation("r1", r1Schema(), &Elevation{
		Relation: "r1",
		Context:  "c1",
		Columns: []ElevatedColumn{
			{Column: "cname", SemType: "companyName"},
			{Column: "revenue", SemType: "companyFinancials"},
		},
	})
	reg.MustRegisterRelation("r2", r2Schema(), &Elevation{
		Relation: "r2",
		Context:  "c2",
		Columns: []ElevatedColumn{
			{Column: "cname", SemType: "companyName"},
			{Column: "expenses", SemType: "companyFinancials"},
		},
	})
	reg.MustRegisterRelation("r3", r3Schema(), nil)
	reg.MustAddAncillary("rate", "r3")
	return reg
}

func TestModifiersOfWithInheritance(t *testing.T) {
	m := NewModel()
	m.MustAddType(&SemType{Name: "measure", Modifiers: []string{"scaleFactor"}})
	m.MustAddType(&SemType{Name: "money", Parent: "measure", Modifiers: []string{"currency"}})
	mods, err := m.ModifiersOf("money")
	if err != nil {
		t.Fatal(err)
	}
	if len(mods) != 2 || mods[0] != "scaleFactor" || mods[1] != "currency" {
		t.Errorf("modifiers = %v", mods)
	}
	if _, err := m.ModifiersOf("nope"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	m.MustAddType(&SemType{Name: "a"})
	if err := m.AddType(&SemType{Name: "a"}); err == nil {
		t.Error("duplicate type accepted")
	}
	if err := m.AddType(&SemType{Name: "b", Parent: "zzz"}); err == nil {
		t.Error("unknown parent accepted")
	}
	m.MustAddConversion(RatioConversion("m"))
	if err := m.AddConversion(RatioConversion("m")); err == nil {
		t.Error("duplicate conversion accepted")
	}
}

func TestContextValidation(t *testing.T) {
	c := NewContext("c")
	if err := c.Declare(&ModifierDecl{SemType: "t", Modifier: "m"}); err == nil {
		t.Error("empty cases accepted")
	}
	if err := c.Declare(&ModifierDecl{SemType: "t", Modifier: "m", Cases: []Case{
		{Value: ConstSpec(1)},
		{CondModifier: "x", CondOp: "=", CondValue: datalog.Str("a"), Value: ConstSpec(2)},
	}}); err == nil {
		t.Error("unconditional non-last case accepted")
	}
	if err := c.Declare(&ModifierDecl{SemType: "t", Modifier: "m", Cases: []Case{
		{CondModifier: "x", CondOp: "=", CondValue: datalog.Str("a"), Value: ConstSpec(2)},
	}}); err == nil {
		t.Error("conditional last case accepted")
	}
	if err := c.DeclareConst("t", "m", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareConst("t", "m", 2); err == nil {
		t.Error("duplicate declaration accepted")
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry(paperModel())
	c1, _ := paperContexts()
	reg.MustAddContext(c1)
	if err := reg.AddContext(c1); err == nil {
		t.Error("duplicate context accepted")
	}
	// Unknown context in elevation.
	err := reg.RegisterRelation("r1", r1Schema(), &Elevation{Relation: "r1", Context: "zzz"})
	if err == nil {
		t.Error("unknown context accepted")
	}
	// Column not in schema.
	err = reg.RegisterRelation("r1", r1Schema(), &Elevation{
		Relation: "r1", Context: "c1",
		Columns: []ElevatedColumn{{Column: "nope", SemType: "companyName"}},
	})
	if err == nil {
		t.Error("unknown column accepted")
	}
	// Unknown semantic type.
	err = reg.RegisterRelation("r1", r1Schema(), &Elevation{
		Relation: "r1", Context: "c1",
		Columns: []ElevatedColumn{{Column: "cname", SemType: "zzz"}},
	})
	if err == nil {
		t.Error("unknown semtype accepted")
	}
	// Ancillary over unregistered relation.
	if err := reg.AddAncillary("rate", "r3"); err == nil {
		t.Error("ancillary over missing relation accepted")
	}
}

func TestNeedsConversion(t *testing.T) {
	reg := paperRegistry(t)
	cases := []struct {
		rel, col string
		want     bool
	}{
		{"r1", "revenue", true},
		{"r1", "cname", false},    // companyName has no modifiers
		{"r1", "currency", false}, // not elevated
		{"r2", "expenses", true},
		{"r3", "rate", false}, // unelevated relation
	}
	for _, c := range cases {
		got, err := reg.NeedsConversion(c.rel, c.col)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("NeedsConversion(%s.%s) = %v, want %v", c.rel, c.col, got, c.want)
		}
	}
	if _, err := reg.NeedsConversion("zzz", "x"); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestIsAbducible(t *testing.T) {
	reg := paperRegistry(t)
	if !reg.IsAbducible("rel_r1", 3) {
		t.Error("rel_r1/3 should be abducible")
	}
	if reg.IsAbducible("rel_r1", 2) {
		t.Error("wrong arity accepted")
	}
	if reg.IsAbducible("rate", 3) {
		t.Error("ancillary pred itself must not be abducible (its relation is)")
	}
	if reg.IsAbducible("rel_zzz", 1) {
		t.Error("unknown relation accepted")
	}
}

func TestCompileProgramStructure(t *testing.T) {
	reg := paperRegistry(t)
	prog, err := reg.Compile("c2")
	if err != nil {
		t.Fatal(err)
	}
	wantPreds := []string{
		"cvt_scaleFactor/4",
		"cvt_currency/4",
		"rate/3",
		"sem_c2__r1__revenue/4",
		"sem_c2__r2__expenses/3",
		"mv_c1__r1__revenue__scaleFactor/4",
		"mv_c1__r1__revenue__currency/4",
		"mv_c2__r2__expenses__scaleFactor/3",
		"mv_c2__r2__expenses__currency/3",
	}
	for _, p := range wantPreds {
		i := strings.LastIndexByte(p, '/')
		arity, _ := strconv.Atoi(p[i+1:])
		if len(prog.Clauses(p[:i], arity)) == 0 {
			t.Errorf("compiled program missing %s; have\n%s", p, prog)
		}
	}
	// The scaleFactor mval must have two disjoint rules (JPY / non-JPY).
	if n := len(prog.Clauses("mv_c1__r1__revenue__scaleFactor", 4)); n != 2 {
		t.Errorf("scaleFactor mval clauses = %d, want 2", n)
	}
}

// TestCompiledProgramMediatesRevenue runs the abductive solver directly
// over the compiled program for the core of the paper's example: convert
// rl.revenue into the receiver context. It must produce exactly the three
// cases of the mediated query.
func TestCompiledProgramMediatesRevenue(t *testing.T) {
	reg := paperRegistry(t)
	prog, err := reg.Compile("c2")
	if err != nil {
		t.Fatal(err)
	}
	sv := &datalog.Solver{
		Program:            prog,
		Abducible:          reg.IsAbducible,
		CollectConstraints: true,
	}
	goals := []datalog.Term{
		datalog.Comp("rel_r1", datalog.NewVar("N"), datalog.NewVar("Rev"), datalog.NewVar("Cur")),
		datalog.Comp("sem_c2__r1__revenue", datalog.NewVar("N"), datalog.NewVar("Rev"), datalog.NewVar("Cur"), datalog.NewVar("V")),
	}
	sols, err := sv.Solve(goals...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 {
		for _, s := range sols {
			t.Logf("case: V=%s constraints=%v abduced=%v", s.Bindings["V"], s.Constraints, s.Abduced)
		}
		t.Fatalf("cases = %d, want 3 (JPY, USD, other)", len(sols))
	}
	// Classify the three cases.
	var sawJPY, sawUSD, sawOther bool
	for _, s := range sols {
		cur := s.Bindings["Cur"]
		v := s.Bindings["V"]
		switch {
		case datalog.Equal(cur, datalog.Str("JPY")):
			sawJPY = true
			// V must be Rev * 1000 * rate (a symbolic product mentioning 1000).
			if !strings.Contains(v.String(), "1000") || !strings.Contains(v.String(), "*") {
				t.Errorf("JPY case value = %s, want * 1000 * rate shape", v)
			}
			// The ancillary source must have been abduced.
			foundRate := false
			for _, a := range s.Abduced {
				if a.Functor == "rel_r3" {
					foundRate = true
				}
			}
			if !foundRate {
				t.Error("JPY case did not abduce the rate relation")
			}
		case datalog.Equal(cur, datalog.Str("USD")):
			sawUSD = true
			if _, isVar := v.(datalog.Variable); !isVar {
				t.Errorf("USD case value = %s, want identity (plain variable)", v)
			}
			if len(s.Constraints) != 0 {
				t.Errorf("USD case constraints = %v, want none (JPY disequality entailed)", s.Constraints)
			}
		default:
			sawOther = true
			// Residual constraints: Cur \= JPY and Cur \= USD.
			if len(s.Constraints) != 2 {
				t.Errorf("other case constraints = %v, want 2 disequalities", s.Constraints)
			}
			if !strings.Contains(v.String(), "*") {
				t.Errorf("other case value = %s, want * rate shape", v)
			}
		}
	}
	if !sawJPY || !sawUSD || !sawOther {
		t.Errorf("missing case: JPY=%v USD=%v other=%v", sawJPY, sawUSD, sawOther)
	}
}

// TestCompileReceiverC1 checks mediation in the opposite direction: a
// receiver in c1 asking about r2 needs no case split for r2 (c2 is
// constant) but converts into JPY-scaled values only when the receiver's
// own modifiers say so. Receiver c1 is attribute-valued, which is invalid
// for a receiver, so Compile must reject it with a clear error.
func TestCompileReceiverAttributeRejected(t *testing.T) {
	reg := paperRegistry(t)
	_, err := reg.Compile("c1")
	if err == nil || !strings.Contains(err.Error(), "receiver context c1") {
		t.Errorf("Compile(c1) error = %v, want receiver-constant error", err)
	}
}

func TestCompileUnknownReceiver(t *testing.T) {
	reg := paperRegistry(t)
	if _, err := reg.Compile("zzz"); err == nil {
		t.Error("unknown receiver accepted")
	}
}

func TestCompileMissingDeclaration(t *testing.T) {
	m := paperModel()
	reg := NewRegistry(m)
	c1 := NewContext("c1")
	// Declare only scaleFactor, not currency.
	if err := c1.DeclareConst("companyFinancials", "scaleFactor", 1); err != nil {
		t.Fatal(err)
	}
	reg.MustAddContext(c1)
	recv := NewContext("recv")
	if err := recv.DeclareConst("companyFinancials", "scaleFactor", 1); err != nil {
		t.Fatal(err)
	}
	if err := recv.DeclareConst("companyFinancials", "currency", "USD"); err != nil {
		t.Fatal(err)
	}
	reg.MustAddContext(recv)
	reg.MustRegisterRelation("r1", r1Schema(), &Elevation{
		Relation: "r1", Context: "c1",
		Columns: []ElevatedColumn{{Column: "revenue", SemType: "companyFinancials"}},
	})
	if _, err := reg.Compile("recv"); err == nil || !strings.Contains(err.Error(), "does not declare") {
		t.Errorf("missing declaration error = %v", err)
	}
}

func TestAffineConversion(t *testing.T) {
	m := NewModel()
	m.MustAddType(&SemType{Name: "temperature", Modifiers: []string{"unit"}})
	m.MustAddConversion(AffineConversion("unit", datalog.Str("C"), datalog.Str("F"), 1.8, 32))
	conv, _ := m.ConversionFor("unit")
	prog := datalog.NewProgram()
	prog.Add(conv.Clauses...)
	sv := &datalog.Solver{Program: prog}
	sols, err := sv.Solve(datalog.Comp("cvt_unit", datalog.Number(100), datalog.Str("C"), datalog.Str("F"), datalog.NewVar("V")))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !datalog.Equal(sols[0].Bindings["V"], datalog.Number(212)) {
		t.Errorf("100C in F = %v", sols)
	}
	sols, err = sv.Solve(datalog.Comp("cvt_unit", datalog.Number(212), datalog.Str("F"), datalog.Str("C"), datalog.NewVar("V")))
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || !datalog.Equal(sols[0].Bindings["V"], datalog.Number(100)) {
		t.Errorf("212F in C = %v", sols)
	}
}
