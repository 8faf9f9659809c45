package equiv

import (
	"microp4/internal/ir"
	"microp4/internal/midend"
)

// Exploration bounds. Hitting maxWitnesses sets Report.Capped — it is
// reported, never silent; 8192 leaves room above P10's decap × NAT64 ×
// route product (~4.7k), the largest legitimate path space.
const (
	maxWitnesses   = 8192
	pad            = 96 // zero payload bytes after the seed's El extractable bytes
	maxDivergences = 25 // minimized and kept; Report.TotalDivergences counts all
)

// Options tunes a Check run. The zero value selects the production
// configuration.
type Options struct {
	// Transform is the midend transform the third engine applies to an
	// independently compiled copy of the sources (default
	// midend.Transform). Mutation tests inject broken variants here to
	// prove the gate is not vacuous.
	Transform func(*ir.Program) (*ir.Program, error)
}

// Check enumerates every reachable execution path of program prog
// (P1..P11), synthesizes one concrete witness per path, and requires the
// reference interpreter, the compiled MAT pipeline, and an independently
// re-transformed copy to agree byte-for-byte on each. See the package
// documentation for the architecture and soundness boundary.
func Check(prog string, opts Options) (*Report, error) {
	if opts.Transform == nil {
		opts.Transform = midend.Transform
	}
	eng, err := buildProgEngines(prog, opts.Transform)
	if err != nil {
		return nil, err
	}
	c, err := newChecker(prog, eng)
	if err != nil {
		return nil, err
	}
	c.explore()
	return c.report(), nil
}
