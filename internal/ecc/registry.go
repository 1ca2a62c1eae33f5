package ecc

import "sync"

// scheme is one entry of the scheme table: a code built once and shared
// read-only by every caller, and its compiled FER plan.
type scheme struct {
	code Code
	plan *FERPlan
}

// numPaperSchemes is the length of the table's paper prefix.
const numPaperSchemes = 3

// schemeTable is the extended roster, built on first use: the paper's three
// schemes in the order of Figure 5/6, then the extensions. It is a constant,
// not a cache — codes and plans are immutable after construction (a code
// holds only its masks and syndrome tables), the set never changes, and
// there is nothing to bound or evict.
var schemeTable = sync.OnceValue(func() []scheme {
	rep, err := NewRepetition(16, 3)
	if err != nil {
		panic(err) // fixed parameters: cannot fail
	}
	parity, err := NewParity(64)
	if err != nil {
		panic(err)
	}
	codes := []Code{
		MustUncoded64(),
		MustHamming7164(),
		MustHamming74(),
		MustSECDED7264(),
		MustBCH157(),
		MustBCH3121(),
		rep,
		parity,
	}
	table := make([]scheme, len(codes))
	for i, c := range codes {
		table[i] = scheme{code: c, plan: compilePlan(c)}
	}
	return table
})

// codesOf copies the codes of a table slice into a fresh slice the caller
// owns; the codes themselves are the shared table instances.
func codesOf(table []scheme) []Code {
	codes := make([]Code, len(table))
	for i := range table {
		codes[i] = table[i].code
	}
	return codes
}

// PaperSchemes returns the three communication schemes the paper evaluates,
// in the order of Figure 5/6: uncoded (64-bit), H(71,64) and H(7,4). The
// slice is fresh; the codes are the scheme table's shared instances.
func PaperSchemes() []Code { return codesOf(schemeTable()[:numPaperSchemes]) }

// ExtendedSchemes returns the paper's schemes plus the additional coding
// techniques the paper leaves open ("other coding techniques can be used"):
// SECDED(72,64), double-error-correcting BCH codes, triple repetition and a
// parity check. These populate the ablation benches on the trade-off plane.
// The slice is fresh; the codes are the scheme table's shared instances.
func ExtendedSchemes() []Code { return codesOf(schemeTable()) }

// SchemeByName finds a code by display name in the scheme table; the
// boolean reports whether it was found. Every call returns the same
// instance for a name.
func SchemeByName(name string) (Code, bool) {
	for _, s := range schemeTable() {
		if s.code.Name() == name {
			return s.code, true
		}
	}
	return nil, false
}
