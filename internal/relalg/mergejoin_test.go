package relalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

func TestMergeJoinBasic(t *testing.T) {
	a := figure2R1()
	b := figure2R2()
	mj, err := collect(NewMergeJoin(NewScan(a), NewScan(b), []string{"rl.cname"}, []string{"r2.cname"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), []string{"rl.cname"}, []string{"r2.cname"}, nil, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !SameTuples(mj, hj) {
		t.Errorf("merge join != hash join:\n%s\nvs\n%s", mj, hj)
	}
}

func TestMergeJoinResidual(t *testing.T) {
	a := figure2R1()
	b := figure2R2()
	pred := sqlparse.Bin(">", sqlparse.Col("rl", "revenue"), sqlparse.Num(2000000))
	mj, err := collect(NewMergeJoin(NewScan(a), NewScan(b), []string{"rl.cname"}, []string{"r2.cname"}, pred, nil))
	if err != nil {
		t.Fatal(err)
	}
	if mj.Len() != 1 || mj.Tuples[0][0].S != "IBM" {
		t.Errorf("residual filter: %s", mj)
	}
}

func TestMergeJoinErrors(t *testing.T) {
	a := figure2R1()
	b := figure2R2()
	if _, err := collect(NewMergeJoin(NewScan(a), NewScan(b), nil, nil, nil, nil)); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := collect(NewMergeJoin(NewScan(a), NewScan(b), []string{"zzz"}, []string{"r2.cname"}, nil, nil)); err == nil {
		t.Error("bad key accepted")
	}
}

// Property: merge join, hash join and nested-loop join agree, including on
// duplicate keys and NULL keys (which never join).
func TestThreeJoinsAgreeProperty(t *testing.T) {
	pred := sqlparse.Bin("=", sqlparse.Col("a", "k"), sqlparse.Col("b", "k"))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num, a.v:num")
		b := testRel("b", "b.k:num, b.w:num")
		addRow := func(rel *Relation) {
			key := Value{}
			if r.Intn(5) > 0 { // 20% NULL keys
				key = NumV(float64(r.Intn(4)))
			}
			rel.MustAdd(key, NumV(float64(r.Intn(100))))
		}
		for i := 0; i < r.Intn(25); i++ {
			addRow(a)
		}
		for i := 0; i < r.Intn(25); i++ {
			addRow(b)
		}
		nl, err := collect(NewNestedLoop(NewScan(a), b, pred), nil)
		if err != nil {
			return false
		}
		hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, false, nil))
		if err != nil {
			return false
		}
		mj, err := collect(NewMergeJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, nil))
		if err != nil {
			return false
		}
		return SameTuples(nl, hj) && SameTuples(nl, mj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Merge join output is ordered by the join keys.
func TestMergeJoinOutputOrdered(t *testing.T) {
	a := testRel("a", "a.k:num",
		[]Value{NumV(3)}, []Value{NumV(1)}, []Value{NumV(2)})
	b := testRel("b", "b.k:num",
		[]Value{NumV(2)}, []Value{NumV(3)}, []Value{NumV(1)})
	mj, err := collect(NewMergeJoin(NewScan(a), NewScan(b), []string{"a.k"}, []string{"b.k"}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < mj.Len(); i++ {
		if mj.Tuples[i-1][0].N > mj.Tuples[i][0].N {
			t.Fatalf("output not key-ordered: %s", mj)
		}
	}
}

// Merge join and hash join agree on NaN and NULL keys: NULL never joins,
// NaN joins NaN and nothing else (SortKey's NaN rule is the canonical-NaN
// keying the hash join uses), on one key column and on two.
func TestMergeHashJoinAgreeOnNaNAndNullKeys(t *testing.T) {
	pool := []Value{Null, NumV(math.NaN()), NumV(math.Float64frombits(0x7FF8000000000001)), NumV(0), NumV(1), NumV(2)}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := testRel("a", "a.k:num, a.j:num, a.v:num")
		b := testRel("b", "b.k:num, b.j:num, b.w:num")
		for i, n := 0, 1+r.Intn(30); i < n; i++ {
			a.MustAdd(pool[r.Intn(len(pool))], pool[r.Intn(len(pool))], NumV(float64(i)))
		}
		for i, n := 0, 1+r.Intn(30); i < n; i++ {
			b.MustAdd(pool[r.Intn(len(pool))], pool[r.Intn(len(pool))], NumV(float64(i)))
		}
		for _, keys := range [][2][]string{
			{{"a.k"}, {"b.k"}},
			{{"a.k", "a.j"}, {"b.k", "b.j"}},
		} {
			hj, err := collect(NewHashJoin(NewScan(a), NewScan(b), keys[0], keys[1], nil, false, nil))
			if err != nil {
				t.Fatal(err)
			}
			mj, err := collect(NewMergeJoin(NewScan(a), NewScan(b), keys[0], keys[1], nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !SameTuples(mj, hj) {
				t.Fatalf("seed=%d keys=%v: merge join != hash join:\n%s\nvs\n%s", seed, keys, mj, hj)
			}
			for _, row := range mj.Tuples {
				if ak, bk := row[0], row[3]; ak.IsNull() || (ak.N != ak.N) != (bk.N != bk.N) {
					t.Fatalf("seed=%d keys=%v: joined %v with %v", seed, keys, ak, bk)
				}
			}
		}
	}
}
