package relalg

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
)

// keyTable is the engine's one value-keyed lookup structure: DISTINCT's
// seen set, GROUP BY's group index, the hash join's build table, and —
// through JoinKeys — the planner's bind-join feeder dedup and batched-IN
// regroup all keep their keys in one. It is an open-addressing table over
// an append-only key arena:
//
//   - A key is a byte string in appendKey's self-delimiting encoding, so
//     two keys are equal exactly when their bytes are, and no key needs a
//     Go string (or a pool of interned ones) of its own.
//   - Ids are dense and in insertion order. Operators that emit in id
//     order (first-occurrence DISTINCT, first-appearance GROUP BY) emit
//     the same order whatever the hash seed.
//   - slots hold id+1 (0 is empty) and are probed triangularly from the
//     key's hash; at 3/4 load they double and are refilled from the
//     per-id hash cache, without reading a key. An id's cached hash and
//     its key's place in the arena share one 16-byte entry, so a probe
//     that hits touches one entry and the key.
//   - The arena is a list of chunks, the first small and each next one
//     twice its predecessor. A chunk never moves, so growth copies no key;
//     the per-id arrays double.
//   - find never writes: once nobody inserts, any number of goroutines
//     may probe the table at once, each with its own key buffer.
type keyTable struct {
	slots  []uint32
	ents   []keyEnt
	chunks [][]byte
}

// keyEnt is one id's entry: its key's hash (32 bits index up to 2^32
// slots) and the key's place in the arena.
type keyEnt struct{ hash, chunk, off, n uint32 }

// keySeed seeds every table's hash. Nothing observable depends on it:
// ids, and with them every output order, follow insertion.
var keySeed = maphash.MakeSeed()

// firstKeyChunk is the arena's first chunk size in bytes: small, so a
// table of a few keys (a paper-size query's) costs little.
const firstKeyChunk = 256

// Value tags of the key encoding.
const (
	keyNull byte = iota
	keyNum
	keyStr
	keyTrue
	keyFalse
)

// canonicalNaN is the one NaN a key holds: SQL has one NaN.
var canonicalNaN = math.Float64bits(math.NaN())

// appendKey appends v's key: a tag, then for a number its 8 big-endian
// bytes with NaN made canonical and −0 folded to 0, for a string a
// uvarint length and the raw bytes. Every encoding is self-delimiting, so
// concatenated keys of two different value sequences never coincide.
// Keys follow IS NOT DISTINCT FROM: NULL = NULL, NaN = NaN, −0 = 0.
func appendKey(dst []byte, v Value) []byte {
	v.checkLive()
	switch v.K {
	case KindNumber:
		bits := math.Float64bits(v.N)
		switch {
		case v.N != v.N:
			bits = canonicalNaN
		case v.N == 0:
			bits = 0
		}
		return binary.BigEndian.AppendUint64(append(dst, keyNum), bits)
	case KindString:
		return append(binary.AppendUvarint(append(dst, keyStr), uint64(len(v.S))), v.S...)
	case KindBool:
		if v.B {
			return append(dst, keyTrue)
		}
		return append(dst, keyFalse)
	}
	return append(dst, keyNull)
}

// appendRowKey appends the key of every value of t.
func appendRowKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = appendKey(dst, v)
	}
	return dst
}

// appendJoinKey appends the key of t at cols under join equality
// (Value.Equal): ok is false when a value is NULL or NaN, which equal
// nothing, so the row can never join.
func appendJoinKey(dst []byte, t Tuple, cols []int) (key []byte, ok bool) {
	for _, i := range cols {
		if v := t[i]; v.K == KindNull || v.N != v.N {
			return dst, false
		}
		dst = appendKey(dst, t[i])
	}
	return dst, true
}

// key returns id's key bytes.
func (t *keyTable) key(id int32) []byte {
	e := &t.ents[id]
	return t.chunks[e.chunk][e.off : e.off+e.n]
}

// reserve presizes the table for n keys.
func (t *keyTable) reserve(n int) {
	if n <= 0 {
		return
	}
	t.ents = slices.Grow(t.ents, n-len(t.ents))
	s := 8
	for 3*s < 4*n { // at most 3/4 load
		s <<= 1
	}
	if s > len(t.slots) {
		t.rehash(s)
	}
}

// probe walks key's probe sequence: it returns the key's id when present,
// else -1 and the empty slot where it would go.
func (t *keyTable) probe(key []byte, h uint32) (id int32, slot uint32) {
	mask := uint32(len(t.slots) - 1)
	for i, step := h&mask, uint32(1); ; i, step = (i+step)&mask, step+1 {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if id := int32(s - 1); t.ents[id].hash == h && bytes.Equal(t.key(id), key) {
			return id, i
		}
	}
}

// find returns key's id, or -1. It never writes to the table.
func (t *keyTable) find(key []byte) int32 {
	if len(t.slots) == 0 {
		return -1
	}
	id, _ := t.probe(key, hashKey(key))
	return id
}

// insert returns key's id, numbering it next when it is new.
func (t *keyTable) insert(key []byte) (id int32, added bool) {
	if 4*(len(t.ents)+1) > 3*len(t.slots) {
		t.rehash(max(8, 2*len(t.slots)))
	}
	h := hashKey(key)
	id, slot := t.probe(key, h)
	if id >= 0 {
		return id, false
	}
	id = int32(len(t.ents))
	t.slots[slot] = uint32(id) + 1
	if len(t.ents) == cap(t.ents) { // double: append's growth slows to 1.25x for large slices
		t.ents = slices.Grow(t.ents, max(cap(t.ents), 8))
	}
	t.ents = append(t.ents, t.store(key, h))
	return id, true
}

// hashKey is a key's slot hash.
func hashKey(key []byte) uint32 { return uint32(maphash.Bytes(keySeed, key)) }

// store copies key, whose hash is h, into the arena.
func (t *keyTable) store(key []byte, h uint32) keyEnt {
	n := len(t.chunks)
	if n == 0 || cap(t.chunks[n-1])-len(t.chunks[n-1]) < len(key) {
		size := firstKeyChunk
		if n > 0 {
			size = 2 * cap(t.chunks[n-1])
		}
		t.chunks = append(t.chunks, make([]byte, 0, max(size, len(key))))
		n++
	}
	c := &t.chunks[n-1]
	e := keyEnt{hash: h, chunk: uint32(n - 1), off: uint32(len(*c)), n: uint32(len(key))}
	*c = append(*c, key...)
	return e
}

// rehash re-slots every id into n slots (a power of two).
func (t *keyTable) rehash(n int) {
	t.slots = make([]uint32, n)
	mask := uint32(n - 1)
	for id, e := range t.ents {
		i, step := e.hash&mask, uint32(1)
		for t.slots[i] != 0 {
			i, step = (i+step)&mask, step+1
		}
		t.slots[i] = uint32(id) + 1
	}
}

// approxBytes is what the table holds, read off its own capacities.
func (t *keyTable) approxBytes() int64 {
	total := int64(cap(t.slots))*4 + int64(cap(t.ents))*keyEntBytes +
		int64(cap(t.chunks))*tupleBytes // a chunk's header is a slice header, as a row's is
	for _, c := range t.chunks {
		total += int64(cap(c))
	}
	return total
}

// JoinKeys numbers the distinct join keys of tuples — their values at
// some key columns — densely in first-appearance order, under join
// equality (Value.Equal): a key holding NULL or NaN is unjoinable and
// gets no id, and −0 is 0. The planner dedups bind-join feeders and
// regroups batched IN answers with it. The zero value is empty.
type JoinKeys struct {
	t   keyTable
	buf []byte
}

// Add returns the id of t's key at cols, numbering it when it is new
// (added); -1 when the key is unjoinable.
func (k *JoinKeys) Add(t Tuple, cols []int) (id int, added bool) {
	key, ok := appendJoinKey(k.buf[:0], t, cols)
	if k.buf = key; !ok {
		return -1, false
	}
	i, added := k.t.insert(key)
	return int(i), added
}
