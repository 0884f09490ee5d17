package wrapper

import (
	"math"
	"testing"

	"repro/internal/relalg"
)

// TestScalarCodec: every value survives Scalar → FromScalar under its own
// kind, the representations drivers and JSON documents use read as the
// declared kind, and anything else is an error rather than a value of
// another kind.
func TestScalarCodec(t *testing.T) {
	for _, v := range []relalg.Value{
		relalg.Null, relalg.NumV(-2.5), relalg.NumV(math.NaN()), relalg.NumV(math.Inf(1)), relalg.NumV(math.Inf(-1)),
		relalg.StrV(""), relalg.StrV("NaN"), relalg.BoolV(true), relalg.BoolV(false),
	} {
		back, err := FromScalar(Scalar(v), v.K)
		if err != nil || back.Key() != v.Key() {
			t.Errorf("round trip of %v = %v, %v", v, back, err)
		}
	}
	ok := []struct {
		x    any
		kind relalg.Kind
		want relalg.Value
	}{
		{nil, relalg.KindNumber, relalg.Null},
		{int64(7), relalg.KindNumber, relalg.NumV(7)},
		{"1e3", relalg.KindNumber, relalg.NumV(1000)},
		{[]byte("12.5"), relalg.KindNumber, relalg.NumV(12.5)},
		{"-Inf", relalg.KindNumber, relalg.NumV(math.Inf(-1))},
		{float64(1), relalg.KindBool, relalg.BoolV(true)},
		{int64(0), relalg.KindBool, relalg.BoolV(false)},
		{[]byte("JPY"), relalg.KindString, relalg.StrV("JPY")},
	}
	for _, c := range ok {
		if got, err := FromScalar(c.x, c.kind); err != nil || got.Key() != c.want.Key() {
			t.Errorf("FromScalar(%#v, %v) = %v, %v; want %v", c.x, c.kind, got, err, c.want)
		}
	}
	bad := []struct {
		x    any
		kind relalg.Kind
	}{
		{"oops", relalg.KindNumber},
		{true, relalg.KindNumber},
		{float64(2), relalg.KindBool},
		{"true", relalg.KindBool},
		{float64(1), relalg.KindString},
		{struct{}{}, relalg.KindString},
	}
	for _, c := range bad {
		if got, err := FromScalar(c.x, c.kind); err == nil {
			t.Errorf("FromScalar(%#v, %v) = %v, want an error", c.x, c.kind, got)
		}
	}
}

// TestScalarValue: a value with no declared column reads as the kind of
// its Go type, so a text that spells a number stays a text.
func TestScalarValue(t *testing.T) {
	cases := []struct {
		x    any
		want relalg.Value
	}{
		{nil, relalg.Null},
		{float64(5), relalg.NumV(5)},
		{int64(5), relalg.NumV(5)},
		{math.Inf(1), relalg.NumV(math.Inf(1))},
		{"30", relalg.StrV("30")},
		{[]byte("NaN"), relalg.StrV("NaN")},
		{true, relalg.BoolV(true)},
	}
	for _, c := range cases {
		if got, err := ScalarValue(c.x); err != nil || got.Key() != c.want.Key() {
			t.Errorf("ScalarValue(%#v) = %v, %v; want %v", c.x, got, err, c.want)
		}
	}
	if got, err := ScalarValue(struct{}{}); err == nil {
		t.Errorf("ScalarValue(struct{}{}) = %v, want an error", got)
	}
}
