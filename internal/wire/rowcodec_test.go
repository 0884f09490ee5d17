package wire

// The row codec is held to encoding/json, not to itself: every check below
// compares AppendRow with json.Marshal of the boxed row (the old wire path:
// boxing + reflection) and ParseRow with json.Unmarshal of the same
// bytes.

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/relalg"
)

// edgeFloats are the values where encoding/json's number formatting
// changes shape, plus the ones JSON cannot spell.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 9600000, 0.5, -2.25, 1e15, 1e15 + 1, 1 << 53, 1<<53 + 2, -(1 << 53),
	1e20, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e22,
	1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1e-9, 1.5e-10, 1e-300, 123456789.125,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e100, 1e-100,
	math.NaN(), math.Inf(1), math.Inf(-1), 0.1, 0.30000000000000004, 1e6, 999999999999999,
}

// edgeStrings carry every byte class encoding/json treats specially.
var edgeStrings = []string{
	"", "NTT", "IBM & co", "<script>", "a>b", `quo"te`, `back\slash`, "tab\there", "nl\nx", "cr\rx",
	"\b\f", "\x00", "\x1f", "\x7f", "é", "日本電信電話", "line\u2028sep", "para\u2029sep", "\ufffd",
	"\xff", "a\xc0b", "\xe2\x80", "\xed\xa0\x80", "😀", "],[", `","`, "}\n",
}

// boxRow is the row as the wire wrote it before the codec: each value
// boxed for encoding/json.
func boxRow(t relalg.Tuple) []interface{} {
	row := make([]interface{}, len(t))
	for i, v := range t {
		switch v.K {
		case relalg.KindNumber:
			row[i] = v.N
		case relalg.KindString:
			row[i] = v.S
		case relalg.KindBool:
			row[i] = v.B
		}
	}
	return row
}

// sameRows is reflect.DeepEqual that tells -0 from +0 (and has no NaN to
// worry about: neither side can produce one).
func sameRows(a, b []interface{}) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		fa, aok := a[i].(float64)
		fb, bok := b[i].(float64)
		if aok != bok || aok && math.Float64bits(fa) != math.Float64bits(fb) || !aok && !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkTuple holds AppendRow(t) to json.Marshal and, where ParseRow takes
// the bytes, ParseRow to json.Unmarshal.
func checkTuple(t *testing.T, tup relalg.Tuple) {
	t.Helper()
	want, werr := json.Marshal(boxRow(tup))
	const prefix = "keep:"
	got, gerr := AppendRow([]byte(prefix), tup)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%v: json.Marshal err=%v, AppendRow err=%v", tup, werr, gerr)
	}
	if gerr != nil {
		if string(got) != prefix {
			t.Fatalf("%v: failed AppendRow left %q in the buffer", tup, got)
		}
		return
	}
	if string(got) != prefix+string(want) {
		t.Fatalf("%v:\n AppendRow  %s\n json       %s", tup, got[len(prefix):], want)
	}
	checkParse(t, append(want, "}\n"...))
}

// checkParse holds ParseRow to json.Unmarshal on whatever prefix of b it
// accepts.
func checkParse(t *testing.T, b []byte) {
	t.Helper()
	row, rest, ok := ParseRow(b, 2)
	if !ok {
		if row != nil || len(rest) != len(b) {
			t.Fatalf("%q: declined but returned row=%v rest=%q", b, row, rest)
		}
		return
	}
	taken := b[:len(b)-len(rest)]
	var want []interface{}
	if err := json.Unmarshal(taken, &want); err != nil {
		t.Fatalf("ParseRow accepted %q, encoding/json does not: %v", taken, err)
	}
	if !sameRows(row, want) {
		t.Fatalf("%q:\n ParseRow %#v\n json     %#v", taken, row, want)
	}
}

// fuzzAlphabet mixes plain bytes with the escaped ones and with the
// pieces of U+2028, U+2029, U+00E9 and invalid UTF-8.
const fuzzAlphabet = "abcXYZ 09<>&\"\\\n\x01\xe2\x80\xa8\xa9\xc3\xa9\xff"

func randomTuple(rng *rand.Rand) relalg.Tuple {
	tup := make(relalg.Tuple, rng.Intn(6))
	for i := range tup {
		switch rng.Intn(8) {
		case 0:
			tup[i] = relalg.Null
		case 1:
			tup[i] = relalg.BoolV(rng.Intn(2) == 0)
		case 2:
			tup[i] = relalg.NumV(math.Float64frombits(rng.Uint64()))
		case 3:
			tup[i] = relalg.NumV(edgeFloats[rng.Intn(len(edgeFloats))])
		case 4:
			tup[i] = relalg.NumV(float64(rng.Int63n(1<<40)-1<<39) / []float64{1, 1, 100, 1e9}[rng.Intn(4)])
		case 5:
			tup[i] = relalg.StrV(edgeStrings[rng.Intn(len(edgeStrings))])
		default:
			s := make([]byte, rng.Intn(12))
			for j := range s {
				s[j] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
			}
			tup[i] = relalg.StrV(string(s))
		}
	}
	return tup
}

func TestRowCodecMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats {
		checkTuple(t, relalg.Tuple{relalg.NumV(f)})
		checkTuple(t, relalg.Tuple{relalg.StrV("x"), relalg.NumV(-f)})
	}
	for _, s := range edgeStrings {
		checkTuple(t, relalg.Tuple{relalg.StrV(s), relalg.BoolV(true), relalg.Null})
	}
	checkTuple(t, nil)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 50000; i++ {
		checkTuple(t, randomTuple(rng))
	}
}

// TestParseRowDeclinesOrAgrees feeds ParseRow text AppendRow never writes:
// what it takes must decode as encoding/json decodes it, and the shapes it
// is documented to leave to encoding/json must be left.
func TestParseRowDeclinesOrAgrees(t *testing.T) {
	for _, in := range []string{
		`[1E5,-0,0.0,1e+2,-1.5e-3,123456789012345,1234567890123456,12345678901234567890]`,
		`[0,"",true,false,null]x`, `[]`, `[]]`, `["é","\ufffd"]`,
		`[1e400]`, `[-]`, `[01]`, `[1.]`, `[.5]`, `[1e]`, `[+1]`, `[0x10]`, `[Infinity]`, `[NaN]`,
		`[tru]`, `[nul`, `[1,]`, `[,1]`, `[1 ,2]`, `[ 1]`, `[[1]]`, `[{"a":1}]`, `["a\"b"]`, `["a\u0041"]`,
		"[\"a\tb\"]", "[\"\xff\"]", `["open`, `[1`, `[`, ``, `1`, `{"a":[1]}`, `["a"`, `["a"}`,
	} {
		checkParse(t, []byte(in))
	}
	for _, in := range []string{`[ 1]`, `[1, 2]`, `[[1]]`, `["a\nb"]`, "[\"\xff\"]", `[1e400]`, `[1`} {
		if _, _, ok := ParseRow([]byte(in), 1); ok {
			t.Errorf("ParseRow took %q; it belongs to the encoding/json fallback", in)
		}
	}
	row, rest, ok := ParseRow([]byte(`["NTT",9600000]}`+"\n"), 2)
	if !ok || string(rest) != "}\n" || !sameRows(row, []interface{}{"NTT", 9.6e6}) {
		t.Errorf("ParseRow = %v, %q, %v", row, rest, ok)
	}
}

// tupleFromBytes reads data as a little program that builds a tuple, so
// the fuzzer reaches raw float bit patterns and arbitrary string bytes.
func tupleFromBytes(data []byte) relalg.Tuple {
	var tup relalg.Tuple
	for len(data) > 0 && len(tup) < 8 {
		op := data[0]
		data = data[1:]
		switch op % 6 {
		case 0:
			tup = append(tup, relalg.Null)
		case 1:
			tup = append(tup, relalg.BoolV(op&8 != 0))
		case 2:
			var bits [8]byte
			data = data[copy(bits[:], data):]
			tup = append(tup, relalg.NumV(math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))))
		case 3:
			tup = append(tup, relalg.NumV(edgeFloats[int(op/6)%len(edgeFloats)]))
		default:
			n := min(int(op/6), len(data))
			tup = append(tup, relalg.StrV(string(data[:n])))
			data = data[n:]
		}
	}
	return tup
}

// FuzzRowCodec drives both directions from one input: the bytes as a
// tuple-building program through AppendRow, and the bytes as wire text
// through ParseRow, each against encoding/json.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte(`["NTT",9600000]`))
	f.Add([]byte(`[1e21,-0,true,null,"<&>"]`))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 28, 'a', 0xff, 0xe2, 0x80, 0xa8, 3, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTuple(t, tupleFromBytes(data))
		checkParse(t, data)
	})
}

// TestRowCodecAllocs gates the two hot loops: encoding into a warm buffer
// allocates nothing, and decoding allocates the row plus what boxing its
// values costs in Go — a box per number, bytes and a box per string.
func TestRowCodecAllocs(t *testing.T) {
	tup := relalg.Tuple{relalg.StrV("NTT"), relalg.NumV(9600000), relalg.NumV(0.125), relalg.BoolV(true), relalg.Null}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendRow(buf[:0], tup); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendRow into a warm buffer: %v allocs/row, want 0", n)
	}
	line := []byte(`["NTT",9600000,true,null]`)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, ok := ParseRow(line, 4); !ok {
			t.Fatal("ParseRow declined")
		}
	}); n > 4 {
		t.Errorf("ParseRow(%s): %v allocs, want <= 4 (row, string bytes, string box, number box)", line, n)
	}
}
