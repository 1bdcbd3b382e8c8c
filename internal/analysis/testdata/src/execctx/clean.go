package relstore

// ScanStartRange threads the per-query context first, as every
// measured entry point must.
func (r *Relation) ScanStartRange(ctx *ExecContext, lo, hi uint32) error {
	return nil
}

// scanClusterBatch is unexported: internal helpers are not measured
// entry points (their callers already hold the context).
func (r *Relation) scanClusterBatch(from, to []byte) error {
	return nil
}

// Open threads the per-query context first.
func (s Selection) Open(ctx *ExecContext) error { return nil }

// Estimate threads the per-query context first, and returns the
// selection with the run positions its probe read.
func (s Selection) Estimate(ctx *ExecContext) (Selection, uint64, bool, error) {
	return s, 0, true, nil
}

// Where is exported but not a measured entry point.
func (s Selection) Where(level uint16) Selection { return s }

// Kind is exported but not a measured entry point.
func (r *Relation) Kind() int { return 0 }

// perQuery: counter state inside a function is fine — only
// package-level state is shared across queries.
func perQuery() *ExecContext {
	ctx := &ExecContext{}
	return ctx
}
