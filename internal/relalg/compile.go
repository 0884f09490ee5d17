package relalg

import (
	"fmt"

	"repro/internal/sqlparse"
)

// CompiledExpr is an expression specialized against one schema. Compile
// resolves every column reference to its position once, so per-row
// evaluation does no name lookups, no qualified-name string building and
// no tree dispatch beyond a closure call per node. Errors (an unknown
// column, a division by zero, an operator applied to the wrong kind)
// surface on the row that reaches them, never at compile time; batch
// operators compile their predicates at Open and run the closure per row.
type CompiledExpr func(Tuple) (Value, error)

// Comparison returns the rule of a comparison operator, one of = <> <
// <= > >=, or nil for any other operator. It is the one statement of the
// rule; compiled expressions, GROUP BY's items and HAVING, and every
// wrapper's selection apply it:
//   - "=" is Value.Equal: NULL and NaN equal nothing, and −0 = 0;
//   - "<>" is false when either side is NULL;
//   - the range operators are false when Compare finds the values
//     incomparable: a NULL or a NaN on either side, or two kinds.
func Comparison(op string) func(l, r Value) bool {
	switch op {
	case "=":
		return Value.Equal
	case "<>":
		return func(l, r Value) bool { return !l.IsNull() && !r.IsNull() && !l.Equal(r) }
	case "<":
		return func(l, r Value) bool { c, ok := l.Compare(r); return ok && c < 0 }
	case "<=":
		return func(l, r Value) bool { c, ok := l.Compare(r); return ok && c <= 0 }
	case ">":
		return func(l, r Value) bool { c, ok := l.Compare(r); return ok && c > 0 }
	case ">=":
		return func(l, r Value) bool { c, ok := l.Compare(r); return ok && c >= 0 }
	}
	return nil
}

// binaryOp returns the value-level rule of a comparison or arithmetic
// operator (any other fails on every pair): NULL on either side of
// arithmetic gives NULL; a non-number or a division by zero is an error.
func binaryOp(op string) func(l, r Value) (Value, error) {
	if cmp := Comparison(op); cmp != nil {
		return func(l, r Value) (Value, error) { return BoolV(cmp(l, r)), nil }
	}
	switch op {
	case "+", "-", "*", "/":
		return func(l, r Value) (Value, error) {
			if l.IsNull() || r.IsNull() {
				return Null, nil
			}
			if l.K != KindNumber || r.K != KindNumber {
				return Null, fmt.Errorf("relalg: arithmetic %q on %v and %v", op, l.K, r.K)
			}
			switch op {
			case "+":
				return NumV(l.N + r.N), nil
			case "-":
				return NumV(l.N - r.N), nil
			case "*":
				return NumV(l.N * r.N), nil
			}
			if r.N == 0 {
				return Null, fmt.Errorf("relalg: division by zero")
			}
			return NumV(l.N / r.N), nil
		}
	}
	return func(Value, Value) (Value, error) { return Null, fmt.Errorf("relalg: unknown binary op %q", op) }
}

// unaryOp returns the value-level rule of NOT or unary minus (an unknown
// operator fails on every value). Both keep NULL; either applied to the
// wrong kind is an error.
func unaryOp(op string) func(Value) (Value, error) {
	switch op {
	case "NOT":
		return func(v Value) (Value, error) {
			if v.K != KindBool {
				if v.IsNull() {
					return Null, nil
				}
				return Null, fmt.Errorf("relalg: NOT applied to %v", v.K)
			}
			return BoolV(!v.B), nil
		}
	case "-":
		return func(v Value) (Value, error) {
			if v.IsNull() {
				return Null, nil
			}
			if v.K != KindNumber {
				return Null, fmt.Errorf("relalg: unary minus applied to %v", v.K)
			}
			return NumV(-v.N), nil
		}
	}
	return func(Value) (Value, error) { return Null, fmt.Errorf("relalg: unknown unary op %q", op) }
}

// truth is a predicate's two-valued reading: NULL and non-bool are false.
func truth(v Value) bool { return v.K == KindBool && v.B }

// binaryExpr applies op to two operands evaluated over the same input: a row
// for Compile, a group for GROUP BY's items and HAVING. AND and OR read
// their operands by truth and short-circuit: the right side runs only when
// the left does not decide. Every other operator evaluates both sides and
// applies binaryOp's rule.
func binaryExpr[T any](op string, l, r func(T) (Value, error)) func(T) (Value, error) {
	if op == "AND" || op == "OR" {
		decides := op == "OR"
		return func(in T) (Value, error) {
			lv, err := l(in)
			if err != nil {
				return Null, err
			}
			if truth(lv) == decides {
				return BoolV(decides), nil
			}
			rv, err := r(in)
			if err != nil {
				return Null, err
			}
			return BoolV(truth(rv)), nil
		}
	}
	f := binaryOp(op)
	return func(in T) (Value, error) {
		lv, err := l(in)
		if err != nil {
			return Null, err
		}
		rv, err := r(in)
		if err != nil {
			return Null, err
		}
		return f(lv, rv)
	}
}

// unaryExpr applies NOT or unary minus to an operand, as binaryExpr does.
func unaryExpr[T any](op string, x func(T) (Value, error)) func(T) (Value, error) {
	f := unaryOp(op)
	return func(in T) (Value, error) {
		v, err := x(in)
		if err != nil {
			return Null, err
		}
		return f(v)
	}
}

// Compile specializes e against schema.
func Compile(e sqlparse.Expr, schema Schema) CompiledExpr {
	switch e := e.(type) {
	case *sqlparse.ColRef:
		idx := schema.Index(e.String())
		if idx < 0 {
			idx = schema.Index(e.Column)
		}
		if idx < 0 {
			return failed(fmt.Errorf("relalg: unknown column %s (schema %v)", e, schema.Names()))
		}
		return func(t Tuple) (Value, error) { return t[idx], nil }
	case sqlparse.NumberLit:
		v := NumV(float64(e))
		return func(Tuple) (Value, error) { return v, nil }
	case sqlparse.StringLit:
		v := StrV(string(e))
		return func(Tuple) (Value, error) { return v, nil }
	case sqlparse.BoolLit:
		v := BoolV(bool(e))
		return func(Tuple) (Value, error) { return v, nil }
	case sqlparse.NullLit:
		return func(Tuple) (Value, error) { return Null, nil }
	case *sqlparse.IsNull:
		x := Compile(e.X, schema)
		not := e.Not
		return func(t Tuple) (Value, error) {
			v, err := x(t)
			if err != nil {
				return Null, err
			}
			return BoolV(v.IsNull() != not), nil
		}
	case *sqlparse.UnaryExpr:
		return unaryExpr(e.Op, Compile(e.X, schema))
	case *sqlparse.BinaryExpr:
		return binaryExpr(e.Op, Compile(e.L, schema), Compile(e.R, schema))
	case *sqlparse.FuncCall:
		return failed(fmt.Errorf("relalg: aggregate %s outside GROUP BY context", e.Name))
	}
	return failed(fmt.Errorf("relalg: cannot evaluate %T", e))
}

// failed is an expression that fails on every row it reaches.
func failed(err error) CompiledExpr {
	return func(Tuple) (Value, error) { return Null, err }
}

// CompileBool specializes a predicate: NULL and non-bool results count as
// false.
func CompileBool(e sqlparse.Expr, schema Schema) func(Tuple) (bool, error) {
	fn := Compile(e, schema)
	return func(t Tuple) (bool, error) {
		v, err := fn(t)
		if err != nil {
			return false, err
		}
		return truth(v), nil
	}
}

// InferType predicts the result kind of an expression over a schema; used
// to type computed projection columns.
func InferType(e sqlparse.Expr, schema Schema) Kind {
	switch e := e.(type) {
	case *sqlparse.ColRef:
		idx := schema.Index(e.String())
		if idx < 0 {
			idx = schema.Index(e.Column)
		}
		if idx >= 0 {
			return schema.Columns[idx].Type
		}
		return KindNull
	case sqlparse.NumberLit:
		return KindNumber
	case sqlparse.StringLit:
		return KindString
	case sqlparse.BoolLit:
		return KindBool
	case *sqlparse.UnaryExpr:
		if e.Op == "-" {
			return KindNumber
		}
		return KindBool
	case *sqlparse.IsNull:
		return KindBool
	case *sqlparse.BinaryExpr:
		switch e.Op {
		case "+", "-", "*", "/":
			return KindNumber
		default:
			return KindBool
		}
	case *sqlparse.FuncCall:
		return KindNumber
	}
	return KindNull
}
