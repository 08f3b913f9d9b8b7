package stream

import "fmt"

// FeasibilityError reports the first violation of the paper's feasibility
// restriction found in a stream.
type FeasibilityError struct {
	Position int  // zero-based element index
	Edge     Edge // the offending element
}

// Error implements the error interface.
func (e *FeasibilityError) Error() string {
	verb := "duplicate subscription"
	if e.Edge.Op == Delete {
		verb = "unsubscription of absent edge"
	}
	return fmt.Sprintf("stream: infeasible element %s at position %d: %s",
		e.Edge, e.Position, verb)
}

// Validator checks feasibility online: (u,i,+) is legal only when (u,i) is
// absent, (u,i,−) only when present. It maintains the live edge set, so
// memory is proportional to the current graph, not the stream length.
type Validator struct {
	live map[Edge]struct{} // keyed with Op forced to Insert
	pos  int
}

// NewValidator creates an empty validator.
func NewValidator() *Validator {
	return &Validator{live: make(map[Edge]struct{})}
}

// Observe checks one element and folds it into the live-edge state. It
// returns a *FeasibilityError on violation; state is not updated in that
// case, so the caller may skip the element and continue.
func (v *Validator) Observe(e Edge) error {
	key := Edge{User: e.User, Item: e.Item, Op: Insert}
	_, present := v.live[key]
	switch e.Op {
	case Insert:
		if present {
			err := &FeasibilityError{Position: v.pos, Edge: e}
			v.pos++
			return err
		}
		v.live[key] = struct{}{}
	case Delete:
		if !present {
			err := &FeasibilityError{Position: v.pos, Edge: e}
			v.pos++
			return err
		}
		delete(v.live, key)
	default:
		err := fmt.Errorf("stream: invalid op %d at position %d", e.Op, v.pos)
		v.pos++
		return err
	}
	v.pos++
	return nil
}

// Validate checks an entire edge slice and returns the first violation, or
// nil if the stream is feasible.
func Validate(edges []Edge) error {
	v := NewValidator()
	for _, e := range edges {
		if err := v.Observe(e); err != nil {
			return err
		}
	}
	return nil
}
