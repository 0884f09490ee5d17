package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/relalg"
	"repro/internal/store"
	"repro/internal/wrapper"
)

// TestConflictWorkloadOracle is the scaled cross-module property test for
// the E5 shape: for m independent two-way modifier splits, each row's
// converted value is val * 1000^(number of K flags). Executing the
// 2^m-branch mediated query must reproduce that oracle on random data.
func TestConflictWorkloadOracle(t *testing.T) {
	for m := 1; m <= 3; m++ {
		t.Run(fmt.Sprintf("modifiers=%d", m), func(t *testing.T) {
			reg := fixture.ConflictRegistry(m)
			med, err := core.New(reg).MediateSQL("SELECT wide.id, wide.val FROM wide", "recv")
			if err != nil {
				t.Fatal(err)
			}
			if len(med.Branches) != 1<<m {
				t.Fatalf("branches = %d", len(med.Branches))
			}

			rng := rand.New(rand.NewSource(int64(m) * 17))
			schema, _ := reg.Schema("wide")
			db := store.NewDB("confsrc")
			tab := db.MustCreateTable("wide", schema)
			oracle := map[string]float64{}
			for i := 0; i < 50; i++ {
				id := fmt.Sprintf("row%02d", i)
				val := float64(rng.Intn(1000) + 1)
				row := relalg.Tuple{relalg.StrV(id), relalg.NumV(val)}
				expected := val
				for j := 0; j < m; j++ {
					flag := "X"
					if rng.Intn(2) == 0 {
						flag = "K"
						expected *= 1000
					}
					row = append(row, relalg.StrV(flag))
				}
				if err := tab.Insert(row); err != nil {
					t.Fatal(err)
				}
				oracle[id] = expected
			}
			cat := NewCatalog()
			cat.MustAddSource(wrapper.NewRelational(db))

			res, err := executeMediation(bg, NewExecutor(cat), med)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != len(oracle) {
				t.Fatalf("rows = %d, want %d (branches must partition the data)", res.Len(), len(oracle))
			}
			for _, tup := range res.Tuples {
				want := oracle[tup[0].S]
				if math.Abs(tup[1].N-want) > 1e-9*want {
					t.Errorf("%s: converted %v, want %v", tup[0].S, tup[1].N, want)
				}
			}
		})
	}
}
