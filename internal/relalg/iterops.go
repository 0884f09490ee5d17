package relalg

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/sqlparse"
)

// FilterIter streams the child tuples satisfying a predicate. When every
// row of a child batch passes, the batch is handed through untouched;
// otherwise the survivors are gathered into a reused row buffer, so the
// filter allocates nothing in steady state.
type FilterIter struct {
	child Iterator
	pred  func(Tuple) (bool, error)
	out   []Tuple
}

// NewFilterFunc filters child by an arbitrary per-tuple predicate.
func NewFilterFunc(child Iterator, pred func(Tuple) (bool, error)) *FilterIter {
	return &FilterIter{child: child, pred: pred}
}

// NewFilter filters child by a sqlparse expression evaluated against the
// child schema (SQL three-valued logic collapsed to two as in EvalBool).
// A nil expression passes everything.
func NewFilter(child Iterator, pred sqlparse.Expr) *FilterIter {
	if pred == nil {
		return &FilterIter{child: child, pred: func(Tuple) (bool, error) { return true, nil }}
	}
	return &FilterIter{child: child, pred: CompileBool(pred, child.Schema())}
}

// Schema implements Iterator.
func (f *FilterIter) Schema() Schema { return f.child.Schema() }

// Open implements Iterator.
func (f *FilterIter) Open(ctx context.Context) error { return f.child.Open(ctx) }

// Next implements Iterator.
func (f *FilterIter) Next(max int) (Batch, error) {
	for {
		b, err := f.child.Next(max)
		if err != nil || b.Empty() {
			return Batch{}, err
		}
		keep := f.out[:0]
		dropped := false
		for i, t := range b.Rows {
			ok, err := f.pred(t)
			if err != nil {
				f.out = keep
				return Batch{}, err
			}
			switch {
			case ok && dropped:
				keep = append(keep, t)
			case !ok && !dropped:
				dropped = true
				keep = append(keep, b.Rows[:i]...)
			}
		}
		if !dropped {
			return b, nil
		}
		f.out = keep
		if len(keep) > 0 {
			return Batch{Rows: keep}, nil
		}
	}
}

// Close implements Iterator.
func (f *FilterIter) Close() error { return f.child.Close() }

// ProjectIter computes one output column per item for every child tuple,
// assembling each output batch in a value arena (one allocation per
// batch, not one tuple allocation per row).
type ProjectIter struct {
	child  Iterator
	items  []ProjectItem
	in     Schema // child schema, resolved once
	schema Schema
	fns    []CompiledExpr // compiled items, one per output column
	bb     *BatchBuilder
}

// ProjectionSchema computes the output schema of projecting items over
// an input schema (types inferred per expression).
func ProjectionSchema(items []ProjectItem, in Schema) Schema {
	cols := make([]Column, len(items))
	for i, it := range items {
		cols[i] = Column{Name: it.Name, Type: InferType(it.Expr, in)}
	}
	return Schema{Columns: cols}
}

// NewProject projects child through items; output types are inferred from
// the child schema.
func NewProject(child Iterator, items []ProjectItem) *ProjectIter {
	in := child.Schema()
	return &ProjectIter{child: child, items: items, in: in, schema: ProjectionSchema(items, in)}
}

// Schema implements Iterator.
func (p *ProjectIter) Schema() Schema { return p.schema }

// Open implements Iterator.
func (p *ProjectIter) Open(ctx context.Context) error {
	p.bb = NewBatchBuilder(len(p.items))
	p.fns = make([]CompiledExpr, len(p.items))
	for i, it := range p.items {
		p.fns[i] = Compile(it.Expr, p.in)
	}
	return p.child.Open(ctx)
}

// Next implements Iterator.
func (p *ProjectIter) Next(max int) (Batch, error) {
	b, err := p.child.Next(max)
	if err != nil || b.Empty() {
		return Batch{}, err
	}
	p.bb.Reset(len(b.Rows))
	for _, t := range b.Rows {
		row := p.bb.Row()
		for i, fn := range p.fns {
			v, err := fn(t)
			if err != nil {
				return Batch{}, err
			}
			row[i] = v
		}
	}
	return p.bb.Batch(), nil
}

// Close implements Iterator.
func (p *ProjectIter) Close() error { return p.child.Close() }

// LimitIter passes through the first n tuples and then reports
// exhaustion without pulling from its child again — the early-exit
// operator that makes the streaming executor worthwhile. It propagates
// its remainder as the child's max, so the batch below it (and every
// batch down to the source leaf) never carries more rows than the limit
// still needs.
type LimitIter struct {
	child  Iterator
	n      int
	seen   int
	opened bool
}

// NewLimit keeps the first n tuples of child (n < 0 keeps all).
func NewLimit(child Iterator, n int) *LimitIter {
	return &LimitIter{child: child, n: n}
}

// Schema implements Iterator.
func (l *LimitIter) Schema() Schema { return l.child.Schema() }

// Open implements Iterator. LIMIT 0 is a complete short-circuit: the
// child is never opened, so no source is contacted and no tuple moves.
func (l *LimitIter) Open(ctx context.Context) error {
	l.seen = 0
	if l.n == 0 {
		return nil
	}
	if err := l.child.Open(ctx); err != nil {
		return err
	}
	l.opened = true
	return nil
}

// Next implements Iterator.
func (l *LimitIter) Next(max int) (Batch, error) {
	if max <= 0 {
		max = DefaultBatchSize
	}
	if l.n >= 0 {
		if rem := l.n - l.seen; rem <= 0 {
			return Batch{}, nil
		} else if max > rem {
			max = rem
		}
	}
	b, err := l.child.Next(max)
	if err != nil || b.Empty() {
		return Batch{}, err
	}
	if len(b.Rows) > max {
		b.Rows = b.Rows[:max]
	}
	l.seen += len(b.Rows)
	return b, nil
}

// Close implements Iterator.
func (l *LimitIter) Close() error {
	if !l.opened {
		return nil
	}
	l.opened = false
	return l.child.Close()
}

// DistinctIter streams the child tuples, dropping duplicates of tuples
// already emitted (first occurrence wins). It holds the set of seen keys,
// not the tuples, so it streams without being a full pipeline breaker.
// Keys are interned fixed-width encodings (see KeyEncoder): probing the
// seen-set allocates nothing; only genuinely new rows insert a key.
type DistinctIter struct {
	child Iterator
	// Intern optionally shares a pipeline-wide interner pool; set it
	// before Open (nil: the operator builds a private pool).
	Intern *Interner
	seen   map[string]struct{}
	enc    *KeyEncoder
	out    []Tuple
}

// NewDistinct deduplicates child.
func NewDistinct(child Iterator) *DistinctIter { return &DistinctIter{child: child} }

// Schema implements Iterator.
func (d *DistinctIter) Schema() Schema { return d.child.Schema() }

// Open implements Iterator.
func (d *DistinctIter) Open(ctx context.Context) error {
	d.seen = make(map[string]struct{})
	d.enc = NewKeyEncoder(d.Intern)
	return d.child.Open(ctx)
}

// Next implements Iterator.
func (d *DistinctIter) Next(max int) (Batch, error) {
	for {
		b, err := d.child.Next(max)
		if err != nil || b.Empty() {
			return Batch{}, err
		}
		keep := d.out[:0]
		dropped := false
		for i, t := range b.Rows {
			k := d.enc.FullKey(t)
			if _, dup := d.seen[string(k)]; dup {
				if !dropped {
					dropped = true
					keep = append(keep, b.Rows[:i]...)
				}
				continue
			}
			d.seen[string(k)] = struct{}{}
			if dropped {
				keep = append(keep, t)
			}
		}
		if !dropped {
			return b, nil
		}
		d.out = keep
		if len(keep) > 0 {
			return Batch{Rows: keep}, nil
		}
	}
}

// Close implements Iterator.
func (d *DistinctIter) Close() error { d.seen, d.enc = nil, nil; return d.child.Close() }

// UnionAllIter concatenates its children's streams, strictly in order. A
// child the union has advanced past is closed before the next is pulled,
// so it pins no resources (a per-arm LIMIT may have stopped its scan leaf
// short of exhaustion, still holding an admission slot). For
// set-semantics UNION, wrap it in NewDistinct.
//
// By default each child opens when the previous one is exhausted, so with
// an upstream early exit later children never run at all. With Ahead set,
// Open opens every child at once, children[1:] each on a goroutine, so
// all their pipeline breakers wait on their sources together; rows still
// leave in child order, and a child's failed Open surfaces only when the
// union reaches it. Ahead forfeits the early exit, and it is safe only
// over children whose opened-but-unpulled state holds no admission slot
// and no goroutine waiting on its consumer.
type UnionAllIter struct {
	children []Iterator
	// Ahead opens children[1:] concurrently at Open; set it before Open.
	Ahead  bool
	ctx    context.Context
	cancel context.CancelFunc
	cur    int          // the child being pulled
	live   bool         // children[cur] is open
	ahead  []chan error // ahead[i]: children[i]'s early Open result, nil once awaited
}

// NewUnionAll concatenates children; schemas must have equal arity
// (column names are taken from the first child, as in SQL).
func NewUnionAll(children ...Iterator) (*UnionAllIter, error) {
	if len(children) == 0 {
		return nil, fmt.Errorf("relalg: union of no inputs")
	}
	arity := len(children[0].Schema().Columns)
	for _, c := range children[1:] {
		if len(c.Schema().Columns) != arity {
			return nil, fmt.Errorf("relalg: UNION arity mismatch: %d vs %d",
				arity, len(c.Schema().Columns))
		}
	}
	return &UnionAllIter{children: children}, nil
}

// Schema implements Iterator.
func (u *UnionAllIter) Schema() Schema { return u.children[0].Schema() }

// Open implements Iterator.
func (u *UnionAllIter) Open(ctx context.Context) error {
	u.ctx, u.cur = ctx, 0
	if u.Ahead && len(u.children) > 1 {
		actx, cancel := context.WithCancel(ctx)
		u.ctx, u.cancel = actx, cancel
		u.ahead = make([]chan error, len(u.children))
		for i := 1; i < len(u.children); i++ {
			u.ahead[i] = make(chan error, 1)
			go u.openAhead(actx, i, u.ahead[i])
		}
	}
	if err := u.children[0].Open(u.ctx); err != nil {
		u.Close()
		return err
	}
	u.live = true
	return nil
}

// openAhead opens children[i] on its own goroutine, reporting on done.
func (u *UnionAllIter) openAhead(ctx context.Context, i int, done chan<- error) {
	done <- u.children[i].Open(ctx)
}

// open opens children[i], or awaits the Open started ahead for it.
func (u *UnionAllIter) open(i int) error {
	if u.ahead == nil {
		return u.children[i].Open(u.ctx)
	}
	err := <-u.ahead[i]
	u.ahead[i] = nil
	return err
}

// Next implements Iterator.
func (u *UnionAllIter) Next(max int) (Batch, error) {
	for u.live {
		b, err := u.children[u.cur].Next(max)
		if err != nil || !b.Empty() {
			return b, err
		}
		// Done with this child: release it before the next one is pulled.
		u.live = false
		if err := u.children[u.cur].Close(); err != nil {
			return Batch{}, err
		}
		if u.cur+1 == len(u.children) {
			break
		}
		u.cur++
		if err := u.open(u.cur); err != nil {
			return Batch{}, err
		}
		u.live = true
	}
	return Batch{}, nil
}

// Close implements Iterator: it cancels the Opens still running ahead,
// waits for them, and closes every child that is open.
func (u *UnionAllIter) Close() error {
	if u.cancel != nil {
		u.cancel()
	}
	var first error
	if u.live {
		u.live = false
		first = u.children[u.cur].Close()
	}
	for i, ch := range u.ahead {
		if ch != nil && <-ch == nil {
			first = cmp.Or(first, u.children[i].Close())
		}
	}
	u.ahead = nil
	return first
}

// NestedLoopIter joins a streaming outer side against a materialized
// inner relation, emitting concatenated rows where pred holds (nil pred:
// cross product). The outer side streams; the inner is re-scanned per
// outer tuple. Candidate rows are assembled directly in the output
// batch's arena and rolled back when the predicate rejects them, so
// allocation is O(batches of matches), not O(pairs).
type NestedLoopIter struct {
	outer  Iterator
	inner  *Relation
	pred   sqlparse.Expr
	schema Schema
	predFn func(Tuple) (bool, error) // pred compiled against schema
	// TransientOutput recycles the output arena between batches; set
	// only via MarkTransient (see its contract).
	TransientOutput bool

	ob   Batch // current outer batch
	oi   int   // next outer row within ob
	cur  Tuple // current outer tuple, nil before first
	pos  int   // next inner index
	bb   *BatchBuilder
	pend error // error to surface after a flushed partial batch
}

// NewNestedLoop joins outer against inner on pred.
func NewNestedLoop(outer Iterator, inner *Relation, pred sqlparse.Expr) *NestedLoopIter {
	return &NestedLoopIter{
		outer:  outer,
		inner:  inner,
		pred:   pred,
		schema: outer.Schema().Concat(inner.Schema),
	}
}

// Schema implements Iterator.
func (n *NestedLoopIter) Schema() Schema { return n.schema }

// Open implements Iterator.
func (n *NestedLoopIter) Open(ctx context.Context) error {
	n.ob, n.oi, n.cur, n.pos, n.pend = Batch{}, 0, nil, 0, nil
	n.bb = NewBatchBuilder(len(n.schema.Columns))
	n.bb.Transient = n.TransientOutput
	if n.pred != nil {
		n.predFn = CompileBool(n.pred, n.schema)
	}
	return n.outer.Open(ctx)
}

// fail flushes an accumulated partial batch before surfacing err.
func (n *NestedLoopIter) fail(err error) (Batch, error) {
	if n.bb.Len() > 0 {
		n.pend = err
		return n.bb.Batch(), nil
	}
	return Batch{}, err
}

// Next implements Iterator.
func (n *NestedLoopIter) Next(max int) (Batch, error) {
	if n.pend != nil {
		err := n.pend
		n.pend = nil
		return Batch{}, err
	}
	if max <= 0 {
		max = DefaultBatchSize
	}
	n.bb.Reset(max)
	for n.bb.Len() < max {
		if n.cur == nil || n.pos >= len(n.inner.Tuples) {
			if n.oi >= len(n.ob.Rows) {
				b, err := n.outer.Next(max)
				if err != nil {
					return n.fail(err)
				}
				if b.Empty() {
					break
				}
				//lint:allow batchretain pull-synchronized: the stashed batch is fully consumed before the next outer Next
				n.ob, n.oi = b, 0
			}
			n.cur, n.pos = n.ob.Rows[n.oi], 0
			n.oi++
			continue
		}
		it := n.inner.Tuples[n.pos]
		n.pos++
		row := n.bb.Concat(n.cur, it)
		if n.predFn != nil {
			ok, err := n.predFn(row)
			if err != nil {
				n.bb.DropLast()
				return n.fail(err)
			}
			if !ok {
				n.bb.DropLast()
			}
		}
	}
	return n.bb.Batch(), nil
}

// Close implements Iterator.
func (n *NestedLoopIter) Close() error { return n.outer.Close() }

// HashJoinIter equi-joins two inputs: the build side is drained and
// hashed at Open (a pipeline breaker, buffered in memory), the probe
// side streams. Output columns are always left.Schema ++ right.Schema
// regardless of which side builds; output order follows the probe
// stream, with matches in build-insertion order (see BuildTable). Probing
// allocates nothing and build-side insertion allocates per distinct key,
// not per row.
type HashJoinIter struct {
	hashJoin
	resFn func(Tuple) (bool, error) // residual compiled against schema
	// TransientOutput recycles the output arena between batches; set
	// only via MarkTransient (see its contract).
	TransientOutput bool

	enc  *KeyEncoder
	pb   Batch // current probe batch
	pi   int   // next probe row within pb
	cur  Tuple // current probe tuple
	mb   int   // bucket index of cur's matches, -1 when none pending
	mi   int   // next match within bucket mb (0 = first, n = rest[n-1])
	bb   *BatchBuilder
	pend error
}

// hashJoin is what the serial and the exchange hash join share: the two
// inputs, the resolved key columns and the one road to the build table.
type hashJoin struct {
	left, right       Iterator
	leftIdx, rightIdx []int // key positions in each side's schema
	residual          sqlparse.Expr
	buildLeft         bool
	schema            Schema
	// Shared optionally obtains the build table through the planner's
	// per-session memo instead of building privately; set it before Open
	// (nil: the operator drains and hashes its own build side).
	Shared BuildSharer

	tbl      *BuildTable
	probe    Iterator // the streaming side and its key positions,
	probeIdx []int    // set by openBuild
}

// hjBucket holds the build tuples sharing one key, in insertion order.
// The first tuple is inline so unique keys (the common case) cost no
// per-key slice allocation; only duplicates spill into rest.
type hjBucket struct {
	first Tuple
	rest  []Tuple
}

// BuildTable is the hashed build side of a hash join, frozen once built
// and opaque outside this package: HashJoinIter probes it from one
// goroutine, ParallelHashJoinIter's workers from several, and — handed
// out by a BuildSharer — any number of joins of one session at once.
// Single string keys (the common case) map the raw string straight to a
// bucket index — the table itself is the interner (bucket index = dense
// handle); other key shapes use the fixed-width encoding over a pool
// private to the table.
type BuildTable struct {
	in      *Interner      // the pool generic keys are encoded over
	stable  map[string]int // single string key: raw string → bucket
	table   map[string]int // every other key shape: encoded key → bucket
	single  bool           // exactly one key column
	buckets []hjBucket
}

// BuildSharer obtains a join's build table on the join's behalf, calling
// build (drain the build child and hash it) only when no other join of
// the session already has: the planner installs one per step. An error
// from build must be returned, not remembered.
type BuildSharer func(ctx context.Context, build func() (*BuildTable, error)) (*BuildTable, error)

// buildHJTable hashes rows on the key columns idx. SQL equality: NULL
// keys never join, so such rows are dropped.
func buildHJTable(rows []Tuple, idx []int) *BuildTable {
	enc := NewKeyEncoder(nil)
	t := &BuildTable{in: enc.in, single: len(idx) == 1, buckets: make([]hjBucket, 0, len(rows))}
	if t.single {
		t.stable = make(map[string]int, len(rows))
	} else {
		t.table = make(map[string]int, len(rows))
	}
	for _, tu := range rows {
		if tupleHasNullKey(tu, idx) {
			continue
		}
		var bi int
		var ok bool
		if t.single && tu[idx[0]].K == KindString {
			s := tu[idx[0]].S
			if bi, ok = t.stable[s]; !ok {
				bi = len(t.buckets)
				t.buckets = append(t.buckets, hjBucket{})
				t.stable[s] = bi
			}
		} else {
			if t.table == nil {
				// Single-key build with a non-string value: fall back to
				// the generic encoded table for this row.
				t.table = make(map[string]int)
			}
			k := enc.Key(tu, idx)
			if bi, ok = t.table[string(k)]; !ok {
				bi = len(t.buckets)
				t.buckets = append(t.buckets, hjBucket{})
				t.table[string(k)] = bi
			}
		}
		if b := &t.buckets[bi]; b.first == nil {
			b.first = tu
		} else {
			b.rest = append(b.rest, tu)
		}
	}
	return t
}

// lookup finds the bucket for a probe tuple's key, if any. Single string
// keys probe the raw-string table directly — no encoding, no pool
// traffic. enc must encode over t.in; LookupKey leaves that pool
// untouched, so any number of probers with private encoders may share one
// table concurrently.
func (t *BuildTable) lookup(tu Tuple, probeIdx []int, enc *KeyEncoder) (int, bool) {
	if t.single {
		if v := tu[probeIdx[0]]; v.K == KindString {
			bi, ok := t.stable[v.S]
			return bi, ok
		}
	}
	if t.table == nil {
		return 0, false
	}
	k, ok := enc.LookupKey(tu, probeIdx)
	if !ok {
		return 0, false
	}
	bi, ok := t.table[string(k)]
	return bi, ok
}

// ApproxBytes estimates what retaining the table pins: bucket array, map
// entries, duplicate-key row headers and the rows' values and strings.
func (t *BuildTable) ApproxBytes() int64 {
	total := int64(cap(t.buckets))*bucketBytes +
		int64(len(t.stable)+len(t.table)+t.in.Size())*mapEntryBytes
	for i := range t.buckets {
		b := &t.buckets[i]
		total += b.first.approxBytes() + int64(cap(b.rest))*tupleBytes
		for _, tu := range b.rest {
			total += tu.approxBytes()
		}
	}
	return total
}

// newHashJoin resolves pairwise equal join key columns in each side's
// schema.
func newHashJoin(left, right Iterator, leftKeys, rightKeys []string, residual sqlparse.Expr, buildLeft bool) (hashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return hashJoin{}, fmt.Errorf("relalg: hash join requires matching non-empty key lists")
	}
	ls, rs := left.Schema(), right.Schema()
	li := make([]int, len(leftKeys))
	ri := make([]int, len(rightKeys))
	for i := range leftKeys {
		li[i] = ls.Index(leftKeys[i])
		ri[i] = rs.Index(rightKeys[i])
		if li[i] < 0 || ri[i] < 0 {
			return hashJoin{}, fmt.Errorf("relalg: hash join key %s/%s not found", leftKeys[i], rightKeys[i])
		}
	}
	return hashJoin{
		left: left, right: right, leftIdx: li, rightIdx: ri,
		residual: residual, buildLeft: buildLeft, schema: ls.Concat(rs),
	}, nil
}

// Schema implements Iterator.
func (j *hashJoin) Schema() Schema { return j.schema }

// openBuild is the one road to a join's build table: the build side
// drained and hashed on its key columns, privately or through Shared —
// which may never open it. The probe side is named, not yet opened.
func (j *hashJoin) openBuild(ctx context.Context) (err error) {
	build, buildIdx, probe, probeIdx := j.right, j.rightIdx, j.left, j.leftIdx
	if j.buildLeft {
		build, buildIdx, probe, probeIdx = j.left, j.leftIdx, j.right, j.rightIdx
	}
	mk := func() (*BuildTable, error) {
		rel, err := Collect(ctx, build, "")
		if err != nil {
			return nil, err
		}
		return buildHJTable(rel.Tuples, buildIdx), nil
	}
	var tbl *BuildTable
	if j.Shared == nil {
		tbl, err = mk()
	} else {
		tbl, err = j.Shared(ctx, mk)
	}
	if err == nil {
		j.tbl, j.probe, j.probeIdx = tbl, probe, probeIdx
	}
	return err
}

// NewHashJoin prepares a hash join of left and right on pairwise equal
// key columns (resolved in each side's schema). buildLeft selects which
// side is materialized and hashed; the other side streams. A residual
// predicate, if non-nil, applies to the concatenated row.
func NewHashJoin(left, right Iterator, leftKeys, rightKeys []string, residual sqlparse.Expr, buildLeft bool, _ Stager) (*HashJoinIter, error) {
	core, err := newHashJoin(left, right, leftKeys, rightKeys, residual, buildLeft)
	if err != nil {
		return nil, err
	}
	return &HashJoinIter{hashJoin: core, mb: -1}, nil
}

// Open implements Iterator: it obtains the build side's hash table.
func (h *HashJoinIter) Open(ctx context.Context) error {
	if err := h.openBuild(ctx); err != nil {
		return err
	}
	h.enc = NewKeyEncoder(h.tbl.in)
	if h.residual != nil {
		h.resFn = CompileBool(h.residual, h.schema)
	}
	h.pb, h.pi, h.cur, h.mb, h.mi, h.pend = Batch{}, 0, nil, -1, 0, nil
	h.bb = NewBatchBuilder(len(h.schema.Columns))
	h.bb.Transient = h.TransientOutput
	return h.probe.Open(ctx)
}

// fail flushes an accumulated partial batch before surfacing err.
func (h *HashJoinIter) fail(err error) (Batch, error) {
	if h.bb.Len() > 0 {
		h.pend = err
		return h.bb.Batch(), nil
	}
	return Batch{}, err
}

// Next implements Iterator.
func (h *HashJoinIter) Next(max int) (Batch, error) {
	if h.pend != nil {
		err := h.pend
		h.pend = nil
		return Batch{}, err
	}
	if max <= 0 {
		max = DefaultBatchSize
	}
	h.bb.Reset(max)
	for h.bb.Len() < max {
		if h.mb < 0 {
			if h.pi >= len(h.pb.Rows) {
				b, err := h.probe.Next(max)
				if err != nil {
					return h.fail(err)
				}
				if b.Empty() {
					break
				}
				//lint:allow batchretain pull-synchronized: the stashed probe batch is fully consumed before the next probe Next
				h.pb, h.pi = b, 0
			}
			t := h.pb.Rows[h.pi]
			h.pi++
			if idx, ok := h.tbl.lookup(t, h.probeIdx, h.enc); ok {
				h.cur, h.mb, h.mi = t, idx, 0
			}
			continue
		}
		bkt := &h.tbl.buckets[h.mb]
		var bt Tuple
		if h.mi == 0 {
			bt = bkt.first
		} else {
			bt = bkt.rest[h.mi-1]
		}
		h.mi++
		if h.mi > len(bkt.rest) {
			h.mb = -1
		}
		// Assemble in left ++ right order: bt came from the build side,
		// h.cur from the probe side.
		l, r := h.cur, bt
		if h.buildLeft {
			l, r = bt, h.cur
		}
		row := h.bb.Concat(l, r)
		if h.resFn != nil {
			ok, err := h.resFn(row)
			if err != nil {
				h.bb.DropLast()
				return h.fail(err)
			}
			if !ok {
				h.bb.DropLast()
			}
		}
	}
	return h.bb.Batch(), nil
}

// Close implements Iterator.
func (h *HashJoinIter) Close() error {
	h.tbl, h.enc, h.mb = nil, nil, -1
	if h.probe == nil {
		return nil
	}
	return h.probe.Close()
}

// SortIter is the canonical pipeline breaker: Open drains the child
// into memory, sorts the buffer with the materialized sort core, and then
// streams the sorted result (zero-copy batches over the sorted buffer).
type SortIter struct {
	child Iterator
	keys  []OrderKey
	// Par > 1 allows up to Par workers (fewer under the rows-per-worker
	// floor, see exchangeWorkers) to chunk-sort concurrently before an
	// order-preserving merge (see sortTuples); output is identical to
	// the serial stable sort. Set before Open.
	Par int
	out *ScanIter
}

// NewSort sorts child by keys (stable).
func NewSort(child Iterator, keys []OrderKey, _ Stager) *SortIter {
	return &SortIter{child: child, keys: keys}
}

// Schema implements Iterator.
func (s *SortIter) Schema() Schema { return s.child.Schema() }

// Open implements Iterator.
func (s *SortIter) Open(ctx context.Context) error {
	rel, err := Collect(ctx, s.child, "")
	if err != nil {
		return err
	}
	sorted, err := sortRelation(rel, s.keys, exchangeWorkers(len(rel.Tuples), s.Par))
	if err != nil {
		return err
	}
	s.out = NewScan(sorted)
	return s.out.Open(ctx)
}

// Next implements Iterator.
func (s *SortIter) Next(max int) (Batch, error) {
	if s.out == nil {
		return Batch{}, nil
	}
	return s.out.Next(max)
}

// Close implements Iterator.
func (s *SortIter) Close() error { s.out = nil; return nil }

// GroupByIter is the aggregation pipeline breaker: Open drains the
// child into memory and runs the materialized grouping core.
type GroupByIter struct {
	child  Iterator
	keys   []sqlparse.Expr
	items  []AggItem
	having sqlparse.Expr
	schema Schema
	// Intern optionally shares a pipeline-wide interner pool with the
	// grouping core; set it before Open.
	Intern *Interner
	out    *ScanIter
}

// NewGroupBy groups child by keys and computes items per group (see
// GroupBy for the exact SQL semantics, including the empty-input global
// aggregate row).
func NewGroupBy(child Iterator, keys []sqlparse.Expr, items []AggItem, having sqlparse.Expr, _ Stager) *GroupByIter {
	in := child.Schema()
	cols := make([]Column, len(items))
	for i, it := range items {
		cols[i] = Column{Name: it.Name, Type: aggType(it.Expr, in)}
	}
	return &GroupByIter{child: child, keys: keys, items: items, having: having,
		schema: Schema{Columns: cols}}
}

// Schema implements Iterator.
func (g *GroupByIter) Schema() Schema { return g.schema }

// Open implements Iterator.
func (g *GroupByIter) Open(ctx context.Context) error {
	rel, err := Collect(ctx, g.child, "")
	if err != nil {
		return err
	}
	grouped, err := groupByInterned(rel, g.keys, g.items, g.having, g.Intern)
	if err != nil {
		return err
	}
	g.out = NewScan(grouped)
	return g.out.Open(ctx)
}

// Next implements Iterator.
func (g *GroupByIter) Next(max int) (Batch, error) {
	if g.out == nil {
		return Batch{}, nil
	}
	return g.out.Next(max)
}

// Close implements Iterator.
func (g *GroupByIter) Close() error { g.out = nil; return nil }
