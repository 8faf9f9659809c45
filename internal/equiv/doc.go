// Package equiv mechanically checks that µP4C's compilation pipeline
// preserves behavior on every reachable execution path of the composed
// programs P1–P11: the slot-compiled MAT engine (sim.Exec), the reference
// interpreter (sim.Interp), and an independently re-transformed copy of
// the program must produce byte-identical outputs on one concrete
// witness per path.
//
// # Architecture
//
// The checker is a three-stage pipeline:
//
//  1. Universe construction. analysis.EnumerateParserPaths gives every
//     start→accept and start→reject route of every linked program's
//     parser (keyed by ParserPath.Key); equiv additionally derives the
//     implicit no-match reject paths — a select with no default case
//     rejects when no case matches, which the enumeration (by design)
//     does not list — as "<prefix>[-1]:reject" keys.
//     analysis.EnumerateControlSites gives every table apply and
//     if/switch decision with its outcome alphabet.
//
//  2. Witness synthesis, concolically, from one seed: an all-zero
//     packet of El + 96 bytes (El, the composition's extract-length,
//     bounds the bytes any path parses). The seed is run through the
//     reference interpreter in observation mode (sim.ObserveProcess),
//     which records every decision taken and — crucially — the
//     input-packet bit location each deciding value was read from
//     (sim.BitLoc), tracked through casts, slices, module-call argument
//     binding, and deparser write-back splices. For every decision the
//     explorer forks each untried alternative: select cases and branch
//     arms are forced by rewriting the located input bytes; table
//     outcomes are forced by installing (or withholding) an entry whose
//     keys are the observed key values, matched by the engines' own rule
//     (sim.EntryMatches). Each forced variant is re-run; if the recorded
//     decision prefix did not replay, the attempt is recorded as
//     unreached with its reason — never silently dropped. Truncation
//     probes (the packet cut one byte short of each observed extraction)
//     exercise the parser's "short" reject handling, which is outside
//     the enumerable path universe.
//
//  3. Differential execution. Every deduplicated witness — a packet, an
//     ingress port, and a set of table entries applied to a
//     snapshot-restored empty control plane — is run through the three
//     engines; their sim.Outcome values (outputs, drop/recirculate/
//     multicast disposition, digests, error class) must agree exactly,
//     by sim.FirstOutcomeDiff. A divergence is minimized greedily
//     (dropping table ops, then trimming trailing packet bytes) before
//     being reported.
//
// # Soundness boundary
//
// The guarantee is per enumerated path, not per packet: parse graphs
// must be acyclic (stack loops are unrolled by the midend first) and
// enumeration is exhaustive but capped at 8192 paths per parser, past
// which the program is rejected outright rather than sampled. Every
// path is reached from the one seed by forcing one decision at a time;
// no static solver guesses a packet for a path, so a path whose
// steering bytes cannot be rewritten without undoing an earlier
// decision stays unreached, and is reported. Varbit extraction lengths
// are explored at the values forcing produces, not at every length; the
// fuzz targets (internal/sim's fuzz differential) remain the complement
// that explores arbitrary packet bytes, while this package guarantees
// decision-structure coverage. Paths whose witnesses cannot be
// synthesized — e.g. a table miss shadowed by const entries, or a
// decision on a value with no input provenance — are reported with
// reasons in Report.Unreached.
//
// # Entry points
//
// Check runs the whole pipeline for one program and returns a Report;
// `up4c -verify-paths` and the equiv tests are thin wrappers over it.
// Options.Transform injects the midend transform used by the third
// engine — the mutation tests prove non-vacuity by injecting a broken
// transform and requiring a divergence.
package equiv
