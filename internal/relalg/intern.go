package relalg

import "math"

// Interner maps strings to dense uint32 handles so hash-keyed operators
// (hash join, DISTINCT, GROUP BY, bind-join feeder dedup) compare 5-byte
// fixed-width handles instead of re-encoding string bytes per tuple per
// operator.
//
// Scope: handles are meaningful only relative to one pool and only for
// that pool's lifetime. A pool has one writer and needs no locking: an
// operator's own, or one the planner shares between the operators a
// single goroutine pulls; a hash-join build table freezes its pool before
// any prober reads it. Anything that crosses a pool boundary — the
// session cache's keys, replay-dedup keys, golden baselines — keeps using
// the collision-proof Value.Key/Tuple.FullKey encoding from PR 4. An
// interned handle must never be persisted.
type Interner struct {
	ids map[string]uint32
}

// NewInterner returns an empty pool.
func NewInterner() *Interner { return &Interner{ids: make(map[string]uint32)} }

// Intern returns the handle for s, assigning the next free one on first
// sight. Looking up an already-interned string allocates nothing.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.ids) + 1)
	in.ids[s] = id
	return id
}

// Lookup returns the handle for s if it has been interned, without
// assigning one — probe-side operators use it so a value that cannot
// possibly match (never seen by the build side's pool) does not grow
// the pool.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Size returns the number of distinct strings interned.
func (in *Interner) Size() int { return len(in.ids) }

// Value tags of the interned key encoding. Each tag implies a fixed
// payload width, so concatenated encodings are self-delimiting and two
// distinct value sequences can never encode to the same bytes (the
// property PR 4's length-prefixed Value.Key established, preserved here
// by construction).
const (
	keyTagNull  = 0x00 // no payload
	keyTagNum   = 0x01 // 8-byte big-endian float64 bits
	keyTagStr   = 0x02 // 4-byte big-endian interner handle
	keyTagTrue  = 0x03 // no payload
	keyTagFalse = 0x04 // no payload
)

// KeyEncoder renders tuple keys as fixed-width byte strings suitable for
// map keying inside a single operator pipeline. It shares one scratch
// buffer across calls: a returned key is valid only until the next call,
// so callers use it immediately as a map key (the m[string(buf)] lookup
// form compiles without allocating; only inserting a new key copies it).
type KeyEncoder struct {
	in  *Interner
	buf []byte
}

// NewKeyEncoder returns an encoder over the given pool (nil: a fresh
// private pool).
func NewKeyEncoder(in *Interner) *KeyEncoder {
	if in == nil {
		in = NewInterner()
	}
	return &KeyEncoder{in: in}
}

func (e *KeyEncoder) appendValue(dst []byte, v Value) []byte {
	v.checkLive()
	switch v.K {
	case KindNumber:
		bits := math.Float64bits(v.N)
		if v.N != v.N {
			// Canonicalize NaN payloads: SQL has one NaN.
			bits = math.Float64bits(math.NaN())
		}
		return append(dst, keyTagNum,
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	case KindString:
		h := e.in.Intern(v.S)
		checkHandle(e.in, h)
		return append(dst, keyTagStr, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
	case KindBool:
		if v.B {
			return append(dst, keyTagTrue)
		}
		return append(dst, keyTagFalse)
	default:
		return append(dst, keyTagNull)
	}
}

// Key encodes the values of t at the given column positions. The result
// aliases the encoder's scratch buffer — valid until the next call.
func (e *KeyEncoder) Key(t Tuple, cols []int) []byte {
	b := e.buf[:0]
	for _, i := range cols {
		b = e.appendValue(b, t[i])
	}
	e.buf = b
	return b
}

// LookupKey encodes like Key but never grows the pool: a string value
// the pool has never seen cannot equal any key that was built through
// it, so the encoding is reported impossible (ok=false) instead of
// interning the string. Because it leaves the pool untouched, concurrent
// probers may call it through private encoders sharing one frozen pool —
// the read-only contract shared build tables rest on (see BuildTable). The returned key aliases the encoder's scratch buffer,
// same as Key.
func (e *KeyEncoder) LookupKey(t Tuple, cols []int) ([]byte, bool) {
	b := e.buf[:0]
	for _, i := range cols {
		v := t[i]
		v.checkLive()
		if v.K == KindString {
			h, ok := e.in.Lookup(v.S)
			if !ok {
				e.buf = b
				return nil, false
			}
			checkHandle(e.in, h)
			b = append(b, keyTagStr, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
			continue
		}
		// Non-string values never touch the pool.
		b = e.appendValue(b, v)
	}
	e.buf = b
	return b, true
}

// FullKey encodes every value of t. Same aliasing rule as Key.
func (e *KeyEncoder) FullKey(t Tuple) []byte {
	b := e.buf[:0]
	for _, v := range t {
		b = e.appendValue(b, v)
	}
	e.buf = b
	return b
}

// ValueKey encodes a single value. Same aliasing rule as Key.
func (e *KeyEncoder) ValueKey(v Value) []byte {
	b := e.appendValue(e.buf[:0], v)
	e.buf = b
	return b
}
