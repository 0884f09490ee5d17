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
// child schema (SQL three-valued logic collapsed to two as in
// CompileBool).
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

func (f *FilterIter) forward() (Iterator, int) { return f.child, 0 }

// ProjectIter computes one output column per item for every child tuple,
// assembling each output batch in a value arena (one allocation per
// batch, not one tuple allocation per row).
type ProjectIter struct {
	child  Iterator
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
	return &ProjectIter{child: child, schema: ProjectionSchema(items, in), fns: compileItems(items, in),
		bb: NewBatchBuilder(len(items))}
}

// Schema implements Iterator.
func (p *ProjectIter) Schema() Schema { return p.schema }

// Open implements Iterator.
func (p *ProjectIter) Open(ctx context.Context) error { return p.child.Open(ctx) }

// compileItems compiles items against in.
func compileItems(items []ProjectItem, in Schema) []CompiledExpr {
	fns := make([]CompiledExpr, len(items))
	for i, it := range items {
		fns[i] = Compile(it.Expr, in)
	}
	return fns
}

// evalItems fills out with the compiled items evaluated over t.
func evalItems(out Tuple, fns []CompiledExpr, t Tuple) error {
	for i, fn := range fns {
		v, err := fn(t)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// Next implements Iterator.
func (p *ProjectIter) Next(max int) (Batch, error) {
	b, err := p.child.Next(max)
	if err != nil || b.Empty() {
		return Batch{}, err
	}
	p.bb.Reset(len(b.Rows))
	for _, t := range b.Rows {
		if err := evalItems(p.bb.Row(), p.fns, t); err != nil {
			return Batch{}, err
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

func (l *LimitIter) forward() (Iterator, int) { return l.child, l.n }

// DistinctIter streams the child tuples, dropping duplicates of tuples
// already emitted (first occurrence wins; NULL, NaN and ±0 compare as IS
// NOT DISTINCT FROM). It holds the keys of the rows it has seen, not the
// rows, so it streams without being a full pipeline breaker; probing the
// key table allocates nothing, only a new row's key grows its arena.
type DistinctIter struct {
	child Iterator
	seen  *keyTable
	buf   []byte
	out   []Tuple
}

// NewDistinct deduplicates child.
func NewDistinct(child Iterator) *DistinctIter {
	return &DistinctIter{child: checkedAs("distinct", child)}
}

// Schema implements Iterator.
func (d *DistinctIter) Schema() Schema { return d.child.Schema() }

// Open implements Iterator.
func (d *DistinctIter) Open(ctx context.Context) error {
	if err := d.child.Open(ctx); err != nil {
		return err
	}
	d.seen = &keyTable{}
	d.seen.reserve(presizeHint(d.child))
	return nil
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
			d.buf = appendRowKey(d.buf[:0], t)
			if _, added := d.seen.insert(d.buf); !added {
				if !dropped {
					dropped = true
					keep = append(keep, b.Rows[:i]...)
				}
				continue
			}
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
func (d *DistinctIter) Close() error {
	if d.seen != nil {
		checkTable(d.seen)
		d.seen = nil
	}
	return d.child.Close()
}

func (d *DistinctIter) forward() (Iterator, int) { return d.child, 0 }

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
	u, arity := &UnionAllIter{}, len(children[0].Schema().Columns)
	for _, c := range children {
		if n := len(c.Schema().Columns); n != arity {
			return nil, fmt.Errorf("relalg: UNION arity mismatch: %d vs %d", arity, n)
		}
		u.children = append(u.children, checkedAs("union", c))
	}
	return u, nil
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

// HashJoinIter equi-joins two inputs: the build side is drained and
// hashed at Open (a pipeline breaker, buffered in memory), the probe
// side streams. Its rows are left.Schema ++ right.Schema regardless of
// which side builds or, once FuseProject has folded a select list into
// it, that list computed over them; output order follows the probe
// stream, with matches in build-insertion order (see BuildTable). With
// no keys every build row is a candidate for every probe row: the nested
// loop. Probing allocates nothing, and building allocates per table, not
// per row.
type HashJoinIter struct {
	left, right       Iterator
	leftIdx, rightIdx []int // key positions in each side's schema
	buildLeft         bool
	in, schema        Schema // left ++ right, and the output's
	// Shared optionally obtains the build table through the planner's
	// per-session memo instead of building privately; set it before Open
	// (nil: the operator drains and hashes its own build side).
	Shared BuildSharer

	tbl      *BuildTable
	probe    Iterator                  // the streaming side and its key positions,
	probeIdx []int                     // set by openBuild
	resFn    func(Tuple) (bool, error) // the residual, compiled against in
	fns      []CompiledExpr            // the folded items over in; nil: the output is in
	pair     Tuple                     // a folded join's candidate pair, in left ++ right order

	buf  []byte // probe key scratch
	pb   Batch  // current probe batch
	pi   int    // next probe row within pb
	cur  Tuple  // current probe tuple
	mr   int32  // build row of cur's next match, -1 when none pending
	bb   *BatchBuilder
	pend error
}

// BuildTable is the hashed build side of a hash join, frozen once built
// and opaque outside this package: HashJoinIter probes it from one
// goroutine and — handed out by a BuildSharer — any number of joins of
// one session at once. It keeps the drained build rows and numbers their
// join keys in a keyTable; the rows of one key form a chain in build
// order.
type BuildTable struct {
	keys keyTable
	rows []Tuple // the build side, in input order
	head []int32 // head[id]: the first row with key id
	next []int32 // next[r]: the next row with row r's key, -1 at the end
}

// BuildSharer obtains a join's build table on the join's behalf, calling
// build (drain the build child and hash it) only when no other join of
// the session already has: the planner installs one per step. An error
// from build must be returned, not remembered.
type BuildSharer func(ctx context.Context, build func() (*BuildTable, error)) (*BuildTable, error)

// buildHJTable hashes rows on the key columns idx. Joins follow
// Value.Equal: rows with a NULL or NaN key never join, so they are left
// out of every chain.
func buildHJTable(rows []Tuple, idx []int) *BuildTable {
	t := &BuildTable{rows: rows, head: make([]int32, 0, len(rows)), next: make([]int32, len(rows))}
	if len(idx) > 0 { // a keyless table holds one key, the empty one, chaining every row
		t.keys.reserve(len(rows))
	}
	var buf []byte
	// Back to front, so that pushing each row onto its chain's head
	// leaves every chain in build order.
	for r := len(rows) - 1; r >= 0; r-- {
		key, ok := appendJoinKey(buf[:0], rows[r], idx)
		buf = key
		if !ok {
			continue
		}
		id, added := t.keys.insert(key)
		if added {
			t.head = append(t.head, int32(r))
			t.next[r] = -1
		} else {
			t.next[r], t.head[id] = t.head[id], int32(r)
		}
	}
	checkTable(&t.keys)
	return t
}

// lookup returns the first build row matching a probe tuple's key, or -1.
// buf is the caller's key scratch: lookup writes nothing else, so any
// number of probers may share one table.
func (t *BuildTable) lookup(tu Tuple, probeIdx []int, buf *[]byte) int32 {
	key, ok := appendJoinKey((*buf)[:0], tu, probeIdx)
	*buf = key
	if !ok {
		return -1
	}
	if id := t.keys.find(key); id >= 0 {
		return t.head[id]
	}
	return -1
}

// ApproxBytes is what retaining the table pins, read off its own
// capacities: the key table, the chains, the row headers and the rows'
// values and strings.
func (t *BuildTable) ApproxBytes() int64 {
	total := t.keys.approxBytes() + int64(cap(t.head)+cap(t.next))*4 + int64(cap(t.rows))*tupleBytes
	for _, tu := range t.rows {
		total += tu.approxBytes()
	}
	return total
}

// NewHashJoin prepares a hash join of left and right on pairwise equal
// key columns (resolved in each side's schema; none: every pair is a
// candidate). buildLeft selects which side is materialized and hashed;
// the other side streams. A residual predicate, if non-nil, applies to
// the concatenated row.
func NewHashJoin(left, right Iterator, leftKeys, rightKeys []string, residual sqlparse.Expr, buildLeft bool, _ Stager) (*HashJoinIter, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("relalg: hash join requires key lists of one length")
	}
	ls, rs := left.Schema(), right.Schema()
	li := make([]int, len(leftKeys))
	ri := make([]int, len(rightKeys))
	for i := range leftKeys {
		li[i] = ls.Index(leftKeys[i])
		ri[i] = rs.Index(rightKeys[i])
		if li[i] < 0 || ri[i] < 0 {
			return nil, fmt.Errorf("relalg: hash join key %s/%s not found", leftKeys[i], rightKeys[i])
		}
	}
	in := ls.Concat(rs)
	h := &HashJoinIter{left: left, right: right, leftIdx: li, rightIdx: ri, buildLeft: buildLeft,
		in: in, schema: in, mr: -1, bb: NewBatchBuilder(len(in.Columns))}
	if residual != nil {
		h.resFn = CompileBool(residual, in)
	}
	return h, nil
}

// NewNestedLoop joins outer against inner on pred (nil: the cross
// product) as a keyless hash join: its one chain holds inner in order,
// so each outer row meets every inner row in turn.
func NewNestedLoop(outer Iterator, inner *Relation, pred sqlparse.Expr) *HashJoinIter {
	hj, _ := NewHashJoin(outer, NewScan(inner), nil, nil, pred, false, nil)
	return hj
}

// NewParallelHashJoin is a no-op alias of NewHashJoin kept for bench/
// until a [benchmark] PR drops it: it returns the serial join and ignores
// par.
func NewParallelHashJoin(left, right Iterator, leftKeys, rightKeys []string, residual sqlparse.Expr, buildLeft bool, _ Stager, _ int) (*HashJoinIter, error) {
	return NewHashJoin(left, right, leftKeys, rightKeys, residual, buildLeft, nil)
}

// Schema implements Iterator.
func (h *HashJoinIter) Schema() Schema { return h.schema }

// openBuild is the one road to a join's build table: the build side
// drained and hashed on its key columns, privately or through Shared —
// which may never open it. The probe side is named, not yet opened.
func (h *HashJoinIter) openBuild(ctx context.Context) (err error) {
	build, buildIdx, probe, probeIdx := h.right, h.rightIdx, h.left, h.leftIdx
	if h.buildLeft {
		build, buildIdx, probe, probeIdx = h.left, h.leftIdx, h.right, h.rightIdx
	}
	mk := func() (*BuildTable, error) {
		rel, err := Collect(ctx, build, "")
		if err != nil {
			return nil, err
		}
		return buildHJTable(rel.Tuples, buildIdx), nil
	}
	var tbl *BuildTable
	if h.Shared == nil {
		tbl, err = mk()
	} else {
		tbl, err = h.Shared(ctx, mk)
	}
	if err == nil {
		kind := "probe"
		if len(probeIdx) == 0 {
			kind = "keyless probe"
		}
		h.tbl, h.probe, h.probeIdx = tbl, checkedAs(kind, probe), probeIdx
	}
	return err
}

// Open implements Iterator: it obtains the build side's hash table.
func (h *HashJoinIter) Open(ctx context.Context) error {
	if err := h.openBuild(ctx); err != nil {
		return err
	}
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
		if h.mr < 0 {
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
			h.cur, h.mr = t, h.tbl.lookup(t, h.probeIdx, &h.buf)
			continue
		}
		bt := h.tbl.rows[h.mr]
		h.mr = h.tbl.next[h.mr]
		// Assemble the pair in left ++ right order (bt came from the build
		// side, h.cur from the probe side): in the arena, or, folded, in
		// the scratch row, so that only a kept pair's items reach it.
		l, r := h.cur, bt
		if h.buildLeft {
			l, r = bt, h.cur
		}
		row := h.pair
		if h.fns == nil {
			row = h.bb.Row()
		}
		copy(row, l)
		copy(row[len(l):], r)
		if h.resFn != nil {
			if ok, err := h.resFn(row); err != nil || !ok {
				if h.fns == nil {
					h.bb.DropLast()
				}
				if err != nil {
					return h.fail(err)
				}
				continue
			}
		}
		if h.fns != nil {
			if err := evalItems(h.bb.Row(), h.fns, row); err != nil {
				return Batch{}, err // as a projection fails: the batch is lost
			}
		}
	}
	return h.bb.Batch(), nil
}

// fold makes the join emit items computed over each joined row instead
// of the row (see FuseProject).
func (h *HashJoinIter) fold(items []ProjectItem) {
	h.fns, h.schema, h.pair = compileItems(items, h.in), ProjectionSchema(items, h.in), make(Tuple, len(h.in.Columns))
	h.bb = &BatchBuilder{arity: len(items), Transient: h.bb.Transient}
}

// Close implements Iterator.
func (h *HashJoinIter) Close() error {
	h.tbl, h.mr = nil, -1
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
	drained
}

// drained is what a pipeline breaker serves once Open has drained its
// child and computed the result: a scan over that result.
type drained struct{ out *ScanIter }

// Next implements Iterator.
func (d *drained) Next(max int) (Batch, error) {
	if d.out == nil {
		return Batch{}, nil
	}
	return d.out.Next(max)
}

// Close implements Iterator.
func (d *drained) Close() error { d.out = nil; return nil }

// RowCountHint implements RowCountHint: after Open the count is exact.
func (d *drained) RowCountHint() int {
	if d.out == nil {
		return 0
	}
	return d.out.RowCountHint()
}

// NewSort sorts child by keys (stable).
func NewSort(child Iterator, keys []OrderKey, _ Stager) *SortIter {
	return &SortIter{child: checkedAs("sort", child), keys: keys}
}

// Schema implements Iterator.
func (s *SortIter) Schema() Schema { return s.child.Schema() }

// Open implements Iterator.
func (s *SortIter) Open(ctx context.Context) error {
	rel, err := Collect(ctx, s.child, "")
	if err != nil {
		return err
	}
	sorted, err := sortRelation(rel, s.keys)
	if err != nil {
		return err
	}
	s.out = NewScan(sorted)
	return s.out.Open(ctx)
}

// GroupByIter is the aggregation pipeline breaker: Open streams the
// child through the grouping compiled at construction, which keeps one
// first row and the accumulators per group, not its input.
type GroupByIter struct {
	child  Iterator
	group  *grouping
	schema Schema
	drained
}

// NewGroupBy groups child by keys and computes items per group (see
// grouping.result for the exact SQL semantics, including the empty-input
// global aggregate row). The grouping copies what it keeps of a row, so
// child is marked transient.
func NewGroupBy(child Iterator, keys []sqlparse.Expr, items []AggItem, having sqlparse.Expr, _ Stager) *GroupByIter {
	in := child.Schema()
	cols := make([]Column, len(items))
	for i, it := range items {
		cols[i] = Column{Name: it.Name, Type: aggType(it.Expr, in)}
	}
	MarkTransient(child)
	return &GroupByIter{child: checkedAs("group-by", child), group: compileGrouping(in, keys, items, having),
		schema: Schema{Columns: cols}}
}

// Schema implements Iterator.
func (g *GroupByIter) Schema() Schema { return g.schema }

// Open implements Iterator.
func (g *GroupByIter) Open(ctx context.Context) error {
	if err := consume(ctx, g.child, g.group.add); err != nil {
		return err
	}
	grouped, err := g.group.result(g.schema)
	if err != nil {
		return err
	}
	g.out = NewScan(grouped)
	return g.out.Open(ctx)
}
