package core

import (
	"fmt"

	"repro/internal/sqlparse"
)

// MediateExact is the referee's oracle: the road before shapes. Every
// literal is compiled in place, the solver is handed them, and nothing is
// memoised or instantiated.
// It shares with Mediate only what the shape road left as it was: the
// solver's configuration, emit/assemble and the UNION combination.
func (m *Mediator) MediateExact(stmt sqlparse.Statement, receiver string) (*Mediation, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		comp, err := m.program(receiver)
		if err != nil {
			return nil, err
		}
		qc, err := m.compileQuery(s, receiver, comp.prog, false)
		if err != nil {
			return nil, err
		}
		maxBranches := m.MaxBranches
		if maxBranches == 0 {
			maxBranches = DefaultMaxBranches
		}
		sols, err := m.solver(qc.prog, maxBranches+1).Solve(qc.goals...)
		if err != nil {
			return nil, fmt.Errorf("core: abductive procedure failed: %w", err)
		}
		if len(sols) > maxBranches {
			return nil, fmt.Errorf("core: mediated query exceeds %d branches; raise Mediator.MaxBranches", maxBranches)
		}
		return qc.assemble(s, sols, comp.meta)
	case *sqlparse.Union:
		left, err := m.MediateExact(s.Left, receiver)
		if err != nil {
			return nil, err
		}
		right, err := m.MediateExact(s.Right, receiver)
		if err != nil {
			return nil, err
		}
		return unite(s, receiver, left, right)
	}
	return nil, fmt.Errorf("core: cannot mediate %T", stmt)
}

// ShapeCount reports how many shapes are memoised for a receiver.
func (m *Mediator) ShapeCount(receiver string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.progs[receiver]; c != nil {
		return len(c.shapes)
	}
	return 0
}

// Memo bounds, for the tests that fill and overflow them.
const (
	MaxShapes    = maxShapes
	MaxShapeText = maxShapeText
)
