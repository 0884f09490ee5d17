package wrappertest

import (
	"context"
	"sync"

	"repro/internal/relalg"
	"repro/internal/wrapper"
)

// Chunked re-serves the inner wrapper's answers through a stream that
// delivers rows in fixed-size chunks and always performs one final empty
// fetch before reporting end of stream — the shape a paginated backend
// produces when the row count is an exact multiple of the page size.
// Tests use it to prove stream consumers treat an empty tail chunk as
// clean EOF rather than an error, a phantom row, or a premature stop.
type Chunked struct {
	wrapper.Wrapper
	// Size is the chunk width (rows per simulated fetch); <= 0 means 1.
	Size int

	mu     sync.Mutex
	chunks int
}

// NewChunked wraps inner with chunk width size.
func NewChunked(inner wrapper.Wrapper, size int) *Chunked {
	return &Chunked{Wrapper: inner, Size: size}
}

// Chunks reports how many chunk fetches streams have performed in total,
// including each stream's final empty fetch.
func (c *Chunked) Chunks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks
}

// QueryStream implements wrapper.Streamer over the inner wrapper's
// materialized answer.
func (c *Chunked) QueryStream(ctx context.Context, q wrapper.SourceQuery) (wrapper.TupleStream, error) {
	rel, err := c.Wrapper.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	size := c.Size
	if size <= 0 {
		size = 1
	}
	return wrapper.NewCursor(ctx, &chunkStream{src: c, rel: rel, size: size}, nil, nil)
}

// chunkStream is a wrapper.RawReader that hands out buffered rows and
// pulls the next chunk — possibly the empty final one — whenever the
// buffer drains.
type chunkStream struct {
	src  *Chunked
	rel  *relalg.Relation
	size int
	next int // index of the first row not yet chunked
	buf  []relalg.Tuple
	pos  int
	done bool
}

func (s *chunkStream) Schema() relalg.Schema { return s.rel.Schema }

// fetchChunk simulates one paginated round trip. A fetch that finds no
// rows left is still a fetch — that is the empty final chunk.
func (s *chunkStream) fetchChunk() {
	s.src.mu.Lock()
	s.src.chunks++
	s.src.mu.Unlock()
	end := s.next + s.size
	if end >= len(s.rel.Tuples) {
		end = len(s.rel.Tuples)
	}
	s.buf = s.rel.Tuples[s.next:end]
	s.pos = 0
	if s.next == end {
		s.done = true
	}
	s.next = end
}

// NextBatch implements wrapper.RawReader: a block is (at most) the
// remainder of the current chunk — chunk boundaries survive as batch
// boundaries, and the final empty fetch still happens before EOF.
func (s *chunkStream) NextBatch(max int) ([]relalg.Tuple, error) {
	for s.pos >= len(s.buf) {
		if s.done {
			return nil, nil
		}
		s.fetchChunk()
	}
	end := s.pos + max
	if end > len(s.buf) {
		end = len(s.buf)
	}
	rows := s.buf[s.pos:end]
	s.pos = end
	return rows, nil
}

func (s *chunkStream) Close() error { return nil }
