package wrapper

// The scalar codec every backend that crosses a Go-typed boundary (a JSON
// document, a database/sql driver) speaks: one encoder and one decoder,
// so a source's representation of a number, a flag or a text reaches the
// common data model the same way whichever wrapper read it.

import (
	"fmt"
	"strconv"

	"repro/internal/relalg"
)

// Scalar is v as a plain Go scalar: nil for NULL, float64 for a number
// (NaN and ±Inf included: a JSON encoder must spell those itself), bool,
// or string.
func Scalar(v relalg.Value) any {
	switch v.K {
	case relalg.KindNull:
		return nil
	case relalg.KindNumber:
		return v.N
	case relalg.KindBool:
		return v.B
	}
	return v.S
}

// FromScalar reads x as a value of the declared kind: nil is NULL; a
// number comes from a float64, an int64 or a decimal string (which
// strconv.ParseFloat reads, so "NaN" and "±Inf" too); a bool from a bool
// or the number 0 or 1; a text from a string. A []byte reads as the
// string it holds, as drivers deliver text and decimals. Anything else is
// an error, for the backend to classify and attribute to its column.
func FromScalar(x any, kind relalg.Kind) (relalg.Value, error) {
	switch y := x.(type) {
	case int64:
		x = float64(y)
	case []byte:
		x = string(y)
	}
	switch x := x.(type) {
	case nil:
		return relalg.Null, nil
	case float64:
		if kind == relalg.KindNumber {
			return relalg.NumV(x), nil
		}
		if kind == relalg.KindBool && (x == 0 || x == 1) {
			return relalg.BoolV(x == 1), nil
		}
	case bool:
		if kind == relalg.KindBool {
			return relalg.BoolV(x), nil
		}
	case string:
		switch kind {
		case relalg.KindString:
			return relalg.StrV(x), nil
		case relalg.KindNumber:
			if n, err := strconv.ParseFloat(x, 64); err == nil {
				return relalg.NumV(n), nil
			}
		}
	}
	return relalg.Null, fmt.Errorf("%#v is no %v", x, kind)
}

// ScalarValue reads x as the kind its Go type names, the inverse of
// Scalar for a value that comes with no declared column (a bound driver
// argument): a text that spells a number stays a text, so it matches a
// number column as it does in the engine — never.
func ScalarValue(x any) (relalg.Value, error) {
	switch x.(type) {
	case float64, int64:
		return FromScalar(x, relalg.KindNumber)
	case bool:
		return FromScalar(x, relalg.KindBool)
	}
	return FromScalar(x, relalg.KindString)
}
