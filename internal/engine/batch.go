package engine

import (
	"fmt"
	"sort"
)

// BatchOptions parameterizes NetworkBatch, NetworkBatchEach and
// NetworkBatchStream. The zero value is the strict (historical) mode: the
// first candidate error aborts the whole batch.
type BatchOptions struct {
	// ContinueOnError switches the batch to partial-failure mode: a failed
	// candidate becomes an indexed CandidateError record instead of
	// aborting its siblings. NetworkBatch then returns every successful
	// result alongside a *BatchErrors; NetworkBatchEach visits the error
	// and NetworkBatchStream emits it in that candidate's slot, and both
	// keep going. Context cancellation and the per-request deadline stay
	// terminal in both modes — they mean the caller, not the candidate, is
	// done.
	ContinueOnError bool
}

// CandidateError is one candidate's failure in a partial-failure batch: the
// population index plus the typed cause (an apierr sentinel chain, so
// errors.Is classification works per record).
type CandidateError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *CandidateError) Error() string {
	return fmt.Sprintf("candidate %d: %v", e.Index, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *CandidateError) Unwrap() error { return e.Err }

// BatchErrors aggregates the per-candidate failures of a partial-failure
// batch, ordered by population index. It multi-unwraps, so
// errors.Is(batchErr, ErrInvalidInput) matches if any candidate failed that
// way, and errors.As(batchErr, &candErr) yields the first record.
type BatchErrors struct {
	Errors []*CandidateError
}

// Error implements error.
func (e *BatchErrors) Error() string {
	if len(e.Errors) == 1 {
		return fmt.Sprintf("photonoc: 1 candidate failed: %v", e.Errors[0])
	}
	return fmt.Sprintf("photonoc: %d candidates failed; first: %v", len(e.Errors), e.Errors[0])
}

// Unwrap exposes every record for multi-error matching.
func (e *BatchErrors) Unwrap() []error {
	out := make([]error, len(e.Errors))
	for i, ce := range e.Errors {
		out[i] = ce
	}
	return out
}

// sortByIndex orders the records by population index (workers report out of
// order).
func (e *BatchErrors) sortByIndex() {
	sort.Slice(e.Errors, func(i, j int) bool { return e.Errors[i].Index < e.Errors[j].Index })
}

// batchOptions folds the variadic options of the batch entry points.
func batchOptions(opts []BatchOptions) BatchOptions {
	if len(opts) > 0 {
		return opts[0]
	}
	return BatchOptions{}
}
