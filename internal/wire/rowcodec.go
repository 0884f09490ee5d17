package wire

// The wire's row codec: result rows go from relalg.Tuple to JSON bytes and
// back without encoding/json's reflection walk or an intermediate boxed
// []interface{} on the encoding side. Both directions are held to
// encoding/json byte for byte and value for value (rowcodec_test.go,
// FuzzRowCodec): AppendRow writes what json.Marshal writes for the boxed
// row, ParseRow returns what json.Unmarshal returns for the bytes it
// accepts and declines everything else, so a caller that falls back to
// encoding/json on !ok decodes every valid record exactly as before.

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/relalg"
)

// NonFiniteError is AppendRow's failure: JSON has no spelling for NaN or
// ±Inf (encoding/json fails on them too), so the row cannot go on the wire.
type NonFiniteError struct {
	Col int // index of the offending value in the tuple
	Val float64
}

func (e *NonFiniteError) Error() string {
	return strconv.FormatFloat(e.Val, 'g', -1, 64) + " has no JSON encoding"
}

// AppendRow appends t to dst as the JSON array encoding/json writes for
// the same values boxed (HTML-escaping on, ES6 number formatting, invalid
// UTF-8 as the six bytes \ufffd). On a non-finite number it returns dst as it
// was given and an error.
func AppendRow(dst []byte, t relalg.Tuple) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch v.K {
		case relalg.KindNumber:
			if math.IsInf(v.N, 0) || math.IsNaN(v.N) {
				return dst[:mark], &NonFiniteError{Col: i, Val: v.N}
			}
			dst = appendNumber(dst, v.N)
		case relalg.KindString:
			dst = AppendString(dst, v.S)
		case relalg.KindBool:
			dst = strconv.AppendBool(dst, v.B)
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']'), nil
}

// appendNumber formats a finite f as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 with the
// exponent unpadded. Integers below 2^53 (every key, count and money
// amount in practice) take strconv.AppendInt, which prints the same digits
// several times faster; negative zero is not one of them ("-0").
func appendNumber(dst []byte, f float64) []byte {
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10)
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 → e-9
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes encoding/json copies through unescaped
// when HTML-escaping is on: everything printable but " \ < > &.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendString appends s as a JSON string literal with encoding/json's
// escapes.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParseRow reads one JSON array of scalars from the front of b and returns
// it boxed exactly as json.Unmarshal into interface{} would (float64,
// string, bool, nil) together with the bytes after the closing bracket.
// width presizes the row. It accepts only the plain shape AppendRow
// writes — no whitespace, no nesting, no backslash escapes, valid UTF-8,
// numbers in JSON's grammar and float64's range — and reports ok=false,
// with rest=b, on anything else; the caller then hands the record to
// encoding/json, which decodes or rejects it as it always did.
func ParseRow(b []byte, width int) (row []interface{}, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != '[' {
		return nil, b, false
	}
	row = make([]interface{}, 0, width)
	if b[1] == ']' {
		return row, b[2:], true
	}
	for i := 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			start := i + 1
			ascii := true
			for i = start; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' || b[i] < ' ' {
					return nil, b, false
				}
				ascii = ascii && b[i] < utf8.RuneSelf
			}
			if i == len(b) || !ascii && !utf8.Valid(b[start:i]) {
				return nil, b, false
			}
			row = append(row, string(b[start:i]))
			i++
		case c == '-' || '0' <= c && c <= '9':
			f, n, ok := parseNumber(b[i:])
			if !ok {
				return nil, b, false
			}
			row = append(row, f)
			i += n
		case bytes.HasPrefix(b[i:], []byte("true")):
			row = append(row, true)
			i += 4
		case bytes.HasPrefix(b[i:], []byte("false")):
			row = append(row, false)
			i += 5
		case bytes.HasPrefix(b[i:], []byte("null")):
			row = append(row, nil)
			i += 4
		default:
			return nil, b, false
		}
		if i < len(b) && b[i] == ']' {
			return row, b[i+1:], true
		}
		if i == len(b) || b[i] != ',' {
			return nil, b, false
		}
		i++
	}
	return nil, b, false
}

// parseNumber reads a number in JSON's grammar from the front of b and
// returns it with the bytes consumed. Integers of up to 15 digits are
// exact in float64 and are built directly; the rest go to strconv.
func parseNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := b[0] == '-'
	if neg {
		i++
	}
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	intStart := i
	if nd := digits(); nd == 0 || nd > 1 && b[intStart] == '0' {
		return 0, 0, false
	}
	plain := i-intStart <= 15
	if i < len(b) && b[i] == '.' {
		i++
		plain = false
		if digits() == 0 {
			return 0, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		plain = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, 0, false
		}
	}
	if plain {
		var u uint64
		for _, c := range b[intStart:i] {
			u = u*10 + uint64(c-'0')
		}
		if f = float64(u); neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}
