package core

import (
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/sqlparse"
)

// jpyRegistry extends the Figure 2 registry with a receiver context that
// wants thousands of JPY — mediation in the opposite direction.
func jpyRegistry() *domain.Registry {
	reg := fixture.Registry()
	cj := domain.NewContext("c_jpy")
	if err := cj.DeclareConst("companyFinancials", "scaleFactor", 1000); err != nil {
		panic(err)
	}
	if err := cj.DeclareConst("companyFinancials", "currency", "JPY"); err != nil {
		panic(err)
	}
	reg.MustAddContext(cj)
	return reg
}

// TestReceiverInJPY mediates r2 (USD, scale 1) into a kJPY receiver: the
// value is divided by 1000 and multiplied by the USD→JPY rate.
func TestReceiverInJPY(t *testing.T) {
	m := New(jpyRegistry())
	med, err := m.MediateSQL("SELECT r2.cname, r2.expenses FROM r2", "c_jpy")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 1 {
		t.Fatalf("branches = %d:\n%s", len(med.Branches), med.SQL())
	}
	s := med.Branches[0].String()
	if !strings.Contains(s, "/ 1000") {
		t.Errorf("missing scale division:\n%s", s)
	}
	if !strings.Contains(s, "r3.fromCur = 'USD'") || !strings.Contains(s, "r3.toCur = 'JPY'") {
		t.Errorf("missing USD→JPY rate join:\n%s", s)
	}
}

// TestReceiverInJPYFromAttrSource mediates r1 (attribute-valued currency)
// into kJPY: the JPY rows need only the scale step (already 1000), USD
// rows need rate conversion.
func TestReceiverInJPYFromAttrSource(t *testing.T) {
	m := New(jpyRegistry())
	med, err := m.MediateSQL("SELECT r1.cname, r1.revenue FROM r1", "c_jpy")
	if err != nil {
		t.Fatal(err)
	}
	// Exactly two cases: JPY rows are already in the receiver's terms
	// (scale 1000, JPY), everything else divides by 1000 and converts.
	// USD is not special for a JPY receiver, so no third branch exists.
	if len(med.Branches) != 2 {
		t.Fatalf("branches = %d, want 2:\n%s", len(med.Branches), med.SQL())
	}
	var jpyIdentity, restConvert bool
	for _, b := range med.Branches {
		s := b.String()
		if strings.Contains(s, "= 'JPY'") && !strings.Contains(s, "r3") {
			jpyIdentity = true
			if strings.Contains(s, "*") || strings.Contains(s, "/") {
				t.Errorf("JPY→kJPY branch should be identity:\n%s", s)
			}
		}
		if strings.Contains(s, "<> 'JPY'") && strings.Contains(s, "/ 1000 * r3.rate") {
			restConvert = true
		}
	}
	if !jpyIdentity || !restConvert {
		t.Errorf("case analysis wrong:\n%s", med.SQL())
	}
}

// multiColRegistry has one relation with two converted columns, like the
// finanalysis example.
func multiColRegistry() *domain.Registry {
	reg := domain.NewRegistry(fixture.Model())
	jp := domain.NewContext("japan")
	if err := jp.DeclareConst("companyFinancials", "scaleFactor", 1000); err != nil {
		panic(err)
	}
	if err := jp.DeclareConst("companyFinancials", "currency", "JPY"); err != nil {
		panic(err)
	}
	reg.MustAddContext(jp)
	reg.MustAddContext(fixture.ContextC2())
	schema := relalg.NewSchema(
		relalg.Column{Name: "cname", Type: relalg.KindString},
		relalg.Column{Name: "revenue", Type: relalg.KindNumber},
		relalg.Column{Name: "expenses", Type: relalg.KindNumber},
	)
	reg.MustRegisterRelation("jp_fin", schema, &domain.Elevation{
		Relation: "jp_fin",
		Context:  "japan",
		Columns: []domain.ElevatedColumn{
			{Column: "cname", SemType: "companyName"},
			{Column: "revenue", SemType: "companyFinancials"},
			{Column: "expenses", SemType: "companyFinancials"},
		},
	})
	reg.MustRegisterRelation("r3", fixture.R3Schema(), nil)
	reg.MustAddAncillary("rate", "r3")
	return reg
}

// TestTwoConvertedColumnsOneRelation: both revenue and expenses convert;
// the arithmetic combines two converted values in one expression.
func TestTwoConvertedColumnsOneRelation(t *testing.T) {
	m := New(multiColRegistry())
	med, err := m.MediateSQL(
		"SELECT j.cname, j.revenue - j.expenses AS profit FROM jp_fin j WHERE j.revenue > j.expenses", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 1 {
		t.Fatalf("branches = %d (constant context, no splits):\n%s", len(med.Branches), med.SQL())
	}
	s := med.Branches[0].String()
	// Both sides scaled and rated; the comparison too.
	if strings.Count(s, "* 1000 *") < 2 {
		t.Errorf("conversion arithmetic:\n%s", s)
	}
	// Both conversions share one rate lookup or use two; either is sound,
	// but the FROM must mention r3.
	if !strings.Contains(s, "r3") {
		t.Errorf("missing rate join:\n%s", s)
	}
}

// TestSelfJoin: the same relation twice under different bindings.
func TestSelfJoin(t *testing.T) {
	m := New(fixture.Registry())
	med, err := m.MediateSQL(
		"SELECT a.cname FROM r2 a, r2 b WHERE a.cname = b.cname AND a.expenses > b.expenses", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 1 {
		t.Fatalf("branches = %d", len(med.Branches))
	}
	b := med.Branches[0]
	if len(b.From) != 2 {
		t.Fatalf("self-join FROM = %v", b.From)
	}
	names := map[string]bool{}
	for _, f := range b.From {
		names[f.Binding()] = true
	}
	if !names["a"] || !names["b"] {
		t.Errorf("aliases lost: %v", b.From)
	}
}

// TestArithmeticBothSides: converted columns inside arithmetic on both
// sides of a comparison.
func TestArithmeticBothSides(t *testing.T) {
	m := New(fixture.Registry())
	med, err := m.MediateSQL(
		"SELECT r1.cname FROM r1, r2 WHERE r1.revenue * 2 > r2.expenses + 1000", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 3 {
		t.Fatalf("branches = %d", len(med.Branches))
	}
	found := false
	for _, b := range med.Branches {
		if strings.Contains(b.String(), "* 1000 * r3.rate * 2 > r2.expenses + 1000") {
			found = true
		}
	}
	if !found {
		t.Errorf("JPY branch comparison shape:\n%s", med.SQL())
	}
}

// TestQueryOverAncillaryDirect: the rate table is an ordinary queryable
// relation too.
func TestQueryOverAncillaryDirect(t *testing.T) {
	m := New(fixture.Registry())
	med, err := m.MediateSQL("SELECT r3.fromCur, r3.rate FROM r3 WHERE r3.toCur = 'USD'", "c2")
	if err != nil {
		t.Fatal(err)
	}
	if len(med.Branches) != 1 {
		t.Fatalf("branches = %d", len(med.Branches))
	}
	if strings.Contains(med.Branches[0].String(), "rate(") {
		t.Errorf("ancillary predicate leaked into SQL:\n%s", med.Branches[0])
	}
}

// TestBranchesAreMutuallyExclusive: for every pair of branches of the
// paper's mediated query, their WHERE clauses cannot hold of the same
// tuple (checked symbolically over the currency column: the case-defining
// predicates on rl.currency are disjoint).
func TestBranchesAreMutuallyExclusive(t *testing.T) {
	m := New(fixture.Registry())
	med, err := m.MediateSQL(fixture.PaperQ1, "c2")
	if err != nil {
		t.Fatal(err)
	}
	type caseDef struct {
		eq  string
		neq map[string]bool
	}
	var defs []caseDef
	for _, b := range med.Branches {
		d := caseDef{neq: map[string]bool{}}
		for _, p := range splitPreds(b) {
			if strings.HasPrefix(p, "rl.currency = ") {
				d.eq = p[len("rl.currency = "):]
			}
			if strings.HasPrefix(p, "rl.currency <> ") {
				d.neq[p[len("rl.currency <> "):]] = true
			}
		}
		defs = append(defs, d)
	}
	for i := range defs {
		for j := i + 1; j < len(defs); j++ {
			a, b := defs[i], defs[j]
			disjoint := (a.eq != "" && b.eq != "" && a.eq != b.eq) ||
				(a.eq != "" && b.neq[a.eq]) || (b.eq != "" && a.neq[b.eq])
			if !disjoint {
				t.Errorf("branches %d and %d are not provably disjoint: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func splitPreds(b *sqlparse.Select) []string {
	var out []string
	for _, p := range sqlparse.Conjuncts(b.Where) {
		out = append(out, p.String())
	}
	return out
}
