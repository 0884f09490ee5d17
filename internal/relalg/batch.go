package relalg

// DefaultBatchSize is the row count a consumer requests per Next call
// when it has no tighter bound (a LIMIT remainder, a governor budget) to
// propagate down the pipeline. ~1k rows amortizes per-call overhead
// without letting a single batch dominate memory.
const DefaultBatchSize = 1024

// Batch is the unit of flow between operators: an ordered block of 1..max
// tuples. The zero Batch (no rows) marks exhaustion — operators never
// hand an empty batch to a consumer mid-stream.
//
// Ownership: a batch (its Rows slice) is valid only until the consumer's
// next call to Next or Close on the producing iterator — producers may
// reuse the slice's backing array across calls. The Tuples inside are
// durable: consumers that buffer rows across calls (breakers do) may keep
// them without cloning, exactly as under the tuple-at-a-time contract.
type Batch struct {
	Rows []Tuple
}

// Len returns the number of rows in the batch.
func (b Batch) Len() int { return len(b.Rows) }

// Empty reports whether the batch marks exhaustion.
func (b Batch) Empty() bool { return len(b.Rows) == 0 }

// BatchBuilder assembles output batches for operators that construct new
// rows (projections, join concatenations). Row headers live in a buffer
// reused across batches; the Values live in an append-only arena shared
// by every batch the builder produces: handed-out tuples alias their
// arena slots forever (slots are never rewritten, satisfying tuple
// durability), and the unused tail keeps serving subsequent rows, so the
// builder costs ~1 chunk allocation per few hundred rows instead of one
// tuple allocation per row.
type BatchBuilder struct {
	arity int
	arena []Value
	rows  []Tuple
	// Transient recycles the arena on Reset instead of letting it grow:
	// the next batch overwrites the previous one's values. Only the
	// planner sets it, via MarkTransient, when the operator's consumer
	// provably re-copies or discards every row before pulling again.
	Transient bool
}

// Arena chunk sizing: start small so short pipelines stay cheap, double
// up to a bound so wide streams settle into a few large chunks (the
// abandoned tail of a full chunk is the only waste).
const (
	minArenaRows   = 16
	maxArenaValues = 4096
)

// NewBatchBuilder returns a builder for rows of the given arity.
func NewBatchBuilder(arity int) *BatchBuilder { return &BatchBuilder{arity: arity} }

// Reset starts a new batch of up to capRows rows. Only the row-header
// buffer resets; the arena persists (earlier batches alias it) unless
// the builder is Transient. capRows is a ceiling, not a reservation —
// small streams never pay for the batch size a consumer merely allowed,
// the header grows with use.
func (bb *BatchBuilder) Reset(capRows int) {
	bb.rows = bb.rows[:0]
	if bb.Transient {
		poisonValues(bb.arena)
		bb.arena = bb.arena[:0]
	}
}

// Len returns the number of rows appended since the last Reset.
func (bb *BatchBuilder) Len() int { return len(bb.rows) }

// Row appends one row and returns it for in-place filling. The caller
// must set every column (a slot reclaimed by DropLast may hold stale
// values).
func (bb *BatchBuilder) Row() Tuple {
	if cap(bb.arena)-len(bb.arena) < bb.arity {
		// A fresh chunk; rows already handed out keep aliasing the old
		// one, which is exactly why the arena is never recycled.
		n := 2 * cap(bb.arena)
		if bb.Transient {
			// Pipelines are single-use, so a transient builder's whole
			// life may be ladder: climb steeply to cut the abandoned
			// warm-up chunks (they are recycled, never retained).
			n = 8 * cap(bb.arena)
		}
		if n < minArenaRows*bb.arity {
			n = minArenaRows * bb.arity
		}
		limit := maxArenaValues
		if full := DefaultBatchSize * bb.arity; bb.Transient && full > limit {
			// A transient chunk must eventually hold a whole batch, or
			// Reset (which recycles only the current chunk) would leak a
			// chunk per batch for wide rows. Growth still starts small —
			// short streams never reach this size.
			limit = full
		}
		n = max(min(n, limit), bb.arity)
		bb.arena = make([]Value, 0, n)
	}
	start := len(bb.arena)
	bb.arena = bb.arena[:start+bb.arity]
	row := Tuple(bb.arena[start : start+bb.arity : start+bb.arity])
	bb.rows = append(bb.rows, row)
	return row
}

// Concat appends the concatenation of a and b as one row and returns it.
func (bb *BatchBuilder) Concat(a, b Tuple) Tuple {
	row := bb.Row()
	copy(row, a)
	copy(row[len(a):], b)
	return row
}

// DropLast discards the most recently appended row (a residual predicate
// rejected it after assembly).
func (bb *BatchBuilder) DropLast() {
	bb.rows = bb.rows[:len(bb.rows)-1]
	bb.arena = bb.arena[:len(bb.arena)-bb.arity]
}

// Batch returns the accumulated batch. The builder must not be Reset
// while the consumer still holds the batch.
func (bb *BatchBuilder) Batch() Batch { return Batch{Rows: bb.rows} }

// MarkTransient tells an iterator that its consumer will not use any row
// of a batch after the next Next or Close call on it, so row-building
// operators may recycle their output arenas between batches instead of
// keeping every row alive. It is a planner-side promise: calling it on an
// iterator whose rows ARE retained (a Collect, a breaker's build side)
// corrupts results. Wrappers whose output IS their child's rows (the
// forwarders: counters, filters, limits, DISTINCT) pass the mark to the
// operator that actually builds rows, a union to each of its inputs and a
// DeferredIter to the child it builds at Open; iterators that build no
// rows ignore it. Must be called before Open.
func MarkTransient(it Iterator) {
	for {
		switch x := it.(type) {
		case *ProjectIter:
			x.bb.Transient = true
			return
		case *HashJoinIter:
			x.bb.Transient = true
			return
		case *NestedLoopIter:
			x.bb.Transient = true
			return
		case *UnionAllIter:
			for _, c := range x.children {
				MarkTransient(c)
			}
			return
		case *DeferredIter:
			x.transient = true
			return
		case forwarder:
			it, _ = x.forward()
		default:
			return
		}
	}
}
