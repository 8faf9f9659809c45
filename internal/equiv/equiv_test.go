package equiv

import (
	"fmt"
	"strings"
	"testing"

	"microp4/internal/golden"
	"microp4/internal/ir"
	"microp4/internal/lib"
	"microp4/internal/midend"
	"microp4/internal/sim"
)

// TestPathCoverageGate is the CI hard gate: for every composed program,
// all enumerated accepting and rejecting parser paths must be witnessed
// and differentially checked with zero divergences, and every control-
// site outcome outside the documented structurally-unreachable set must
// be covered.
func TestPathCoverageGate(t *testing.T) {
	for _, m := range lib.Programs {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			r, err := Check(m.Name, Options{})
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if r.Capped {
				t.Errorf("witness cap hit: exploration incomplete")
			}
			if r.TotalDivergences != 0 {
				t.Errorf("%d divergences:\n%s", r.TotalDivergences, r.String())
			}
			if !r.ParserCoverageOK() {
				t.Errorf("parser-path coverage incomplete:\n%s", r.String())
			}
			for _, k := range r.UnexpectedMissing() {
				t.Errorf("uncovered control-site outcome %s (not in the documented unreachable set)", k)
			}
			if !r.OK() {
				t.Errorf("Report.OK() = false")
			}
			// The whole report — witness counts, coverage, unreached
			// notes — is pinned, so a simplification of the explorer
			// that changes any verdict shows here.
			golden.Signature(t, "TestPathCoverageGate/"+m.Name, []byte(r.String()))
			// Conversely: every allowlisted outcome must actually be
			// missing — if the checker starts covering one, the structural
			// argument above is stale and the list must shrink.
			missing := make(map[string]bool)
			for _, s := range r.Sites {
				for _, o := range s.Missing {
					missing[s.Label+"|"+o] = true
				}
			}
			for k := range StructurallyUnreachable[m.Name] {
				if !missing[k] {
					t.Errorf("outcome %s is covered now; remove it from StructurallyUnreachable", k)
				}
			}
			// Unreached outcomes must carry a documented reason.
			if len(missing) > 0 && len(r.Unreached) == 0 {
				t.Errorf("missing outcomes without unreached notes:\n%s", r.String())
			}
		})
	}
}

// mutateTTL flips the IPv4 module's TTL decrement into an increment —
// a midend "transform" with a deliberate bug.
func mutateTTL(p *ir.Program) (*ir.Program, error) {
	q, err := midend.Transform(p)
	if err != nil {
		return nil, err
	}
	if q.Name != "IPv4" {
		return q, nil
	}
	n := 0
	var walk func(ss []*ir.Stmt)
	walk = func(ss []*ir.Stmt) {
		for _, s := range ss {
			if s == nil {
				continue
			}
			if s.Kind == ir.SAssign && s.RHS != nil && s.RHS.Kind == ir.EBin &&
				s.RHS.Op == "-" && strings.Contains(s.LHS.Ref, "ttl") {
				s.RHS.Op = "+"
				n++
			}
			walk(s.Then)
			walk(s.Else)
			for _, c := range s.Cases {
				walk(c.Body)
			}
		}
	}
	for _, a := range q.Actions {
		walk(a.Body)
	}
	walk(q.Apply)
	if n == 0 {
		return nil, fmt.Errorf("mutation found no ttl decrement to flip")
	}
	return q, nil
}

// walkNat64 applies mutate to every statement of a transformed NAT64
// module and errors if nothing matched (a silently vacuous mutation is
// worse than none).
func walkNat64(p *ir.Program, what string, mutate func(*ir.Stmt) bool) (*ir.Program, error) {
	q, err := midend.Transform(p)
	if err != nil {
		return nil, err
	}
	if q.Name != "NAT64" {
		return q, nil
	}
	n := 0
	var walk func(ss []*ir.Stmt)
	walk = func(ss []*ir.Stmt) {
		for _, s := range ss {
			if s == nil {
				continue
			}
			if mutate(s) {
				n++
			}
			walk(s.Then)
			walk(s.Else)
			for _, c := range s.Cases {
				walk(c.Body)
			}
		}
	}
	for _, a := range q.Actions {
		walk(a.Body)
	}
	walk(q.Apply)
	if n == 0 {
		return nil, fmt.Errorf("mutation found no %s to flip", what)
	}
	return q, nil
}

// mutateNat64Checksum breaks the IPv6→IPv4 translation's checksum
// finalization: the one's-complement fold `sum ^ 0xFFFF` becomes
// `sum & 0xFFFF`, which never equals the correct value.
func mutateNat64Checksum(p *ir.Program) (*ir.Program, error) {
	return walkNat64(p, "checksum xor", func(s *ir.Stmt) bool {
		if s.Kind != ir.SAssign || s.LHS == nil || !strings.Contains(s.LHS.Ref, "hdrChecksum") {
			return false
		}
		hit := false
		var fix func(e *ir.Expr)
		fix = func(e *ir.Expr) {
			if e == nil {
				return
			}
			if e.Kind == ir.EBin && e.Op == "^" && e.Y != nil &&
				e.Y.Kind == ir.EConst && e.Y.Value == 0xFFFF {
				e.Op = "&"
				hit = true
			}
			fix(e.X)
			fix(e.Y)
		}
		fix(s.RHS)
		return hit
	})
}

// mutateNat64Prefix corrupts the IPv4→IPv6 address rewrite: the
// synthesized source address gets the wrong NAT64 prefix.
func mutateNat64Prefix(p *ir.Program) (*ir.Program, error) {
	return walkNat64(p, "NAT64 prefix constant", func(s *ir.Stmt) bool {
		if s.Kind != ir.SAssign || s.RHS == nil {
			return false
		}
		hit := false
		var fix func(e *ir.Expr)
		fix = func(e *ir.Expr) {
			if e == nil {
				return
			}
			if e.Kind == ir.EConst && e.Value == 0x0064FF9B00000000 {
				e.Value ^= 0x0000000100000000
				hit = true
			}
			fix(e.X)
			fix(e.Y)
		}
		fix(s.RHS)
		return hit
	})
}

// TestP10Nat64MutationDetected proves the P10 gate catches dataplane
// bugs in the scenario pack's hardest module: flipping either the
// translated header's checksum math or the synthesized v6 address must
// surface as divergences with concrete witnesses.
func TestP10Nat64MutationDetected(t *testing.T) {
	for name, mut := range map[string]func(*ir.Program) (*ir.Program, error){
		"checksum": mutateNat64Checksum,
		"address":  mutateNat64Prefix,
	} {
		t.Run(name, func(t *testing.T) {
			r, err := Check("P10", Options{Transform: mut})
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if r.TotalDivergences == 0 {
				t.Fatalf("broken NAT64 %s produced no divergences; the gate is vacuous:\n%s", name, r.String())
			}
			d := r.Divergences[0]
			if d.Pair != "reference vs re-transformed" {
				t.Errorf("divergence pair = %q, want reference vs re-transformed", d.Pair)
			}
			if d.Witness == nil || len(d.Witness.Packet) == 0 {
				t.Error("divergence carries no witness packet")
			}
		})
	}
}

// TestMutationDetected proves the gate is not vacuous: a deliberately
// broken midend transform must produce divergences, and the divergence
// report must carry a concrete minimized witness.
func TestMutationDetected(t *testing.T) {
	r, err := Check("P4", Options{Transform: mutateTTL})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if r.TotalDivergences == 0 {
		t.Fatalf("broken transform produced no divergences; the gate is vacuous:\n%s", r.String())
	}
	if len(r.Divergences) == 0 {
		t.Fatal("divergences counted but none kept")
	}
	d := r.Divergences[0]
	if d.Pair != "reference vs re-transformed" {
		t.Errorf("divergence pair = %q, want reference vs re-transformed", d.Pair)
	}
	if d.Witness == nil || len(d.Witness.Packet) == 0 {
		t.Error("divergence carries no witness packet")
	}
}

// TestMutationCleanBaseline pins the mutation test's sensitivity: the
// same program with the honest transform has no divergences, so the
// failures above are attributable to the injected bug alone.
func TestMutationCleanBaseline(t *testing.T) {
	r, err := Check("P4", Options{})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if r.TotalDivergences != 0 {
		t.Fatalf("clean P4 diverges:\n%s", r.String())
	}
}

func TestSatisfyCmp(t *testing.T) {
	loc8 := sim.BitLoc{Off: 0, Width: 8, OK: true}
	cases := []struct {
		op   string
		c    uint64
		want uint64
		fail bool
	}{
		{"==", 7, 7, false},
		{"==", 300, 0, true}, // not representable in 8 bits
		{"!=", 7, 6, false},
		{">", 7, 8, false},
		{">", 255, 0, true},
		{">=", 255, 255, false},
		{"<", 0, 0, true},
		{"<", 9, 0, false},
		{"<=", 0, 0, false},
	}
	for _, tc := range cases {
		v, reason := satisfyCmp(tc.op, tc.c, loc8)
		if tc.fail != (reason != "") {
			t.Errorf("satisfyCmp(%q, %d): reason=%q, want fail=%v", tc.op, tc.c, reason, tc.fail)
			continue
		}
		if !tc.fail && v != tc.want {
			t.Errorf("satisfyCmp(%q, %d) = %d, want %d", tc.op, tc.c, v, tc.want)
		}
	}
}

// TestWriteLocAffine checks the affine inversion: a location recording
// "value = sim.Truncate(bits + Add, Width)" must have its bits set so the
// expression evaluates to the requested value, including wrap-around.
func TestWriteLocAffine(t *testing.T) {
	loc := sim.BitLoc{Off: 8, Width: 8, Add: ^uint64(0), OK: true} // value = bits - 1
	pkt := make([]byte, 4)
	if r := writeLoc(pkt, loc, 3); r != "" {
		t.Fatalf("writeLoc: %s", r)
	}
	if pkt[1] != 4 {
		t.Errorf("bits = %d, want 4 (value 3 = 4 - 1)", pkt[1])
	}
	// Wrap-around: value 255 needs raw bits 0.
	if r := writeLoc(pkt, loc, 255); r != "" {
		t.Fatalf("writeLoc wrap: %s", r)
	}
	if pkt[1] != 0 {
		t.Errorf("bits = %d, want 0 (value 255 = sim.Truncate(0 - 1, 8))", pkt[1])
	}
	if r := writeLoc(pkt, loc, 256); r == "" {
		t.Error("value 256 accepted for an 8-bit location")
	}
	if r := writeLoc(pkt, sim.BitLoc{}, 1); r == "" {
		t.Error("write through a !OK location accepted")
	}
}

func TestPartHolds(t *testing.T) {
	cases := []struct {
		p    sim.CondPart
		want bool
	}{
		{sim.CondPart{Op: "==", Const: 5, Val: 5, OK: true}, true},
		{sim.CondPart{Op: "==", Const: 5, Val: 4, OK: true}, false},
		{sim.CondPart{Op: ">", Const: 0, Val: 1, OK: true}, true},
		{sim.CondPart{Op: "<=", Const: 3, Val: 4, OK: true}, false},
		{sim.CondPart{Val: 1}, true},  // opaque: truth is the value
		{sim.CondPart{Val: 0}, false}, // opaque false
	}
	for i, tc := range cases {
		if got := partHolds(tc.p); got != tc.want {
			t.Errorf("case %d: partHolds = %v, want %v", i, got, tc.want)
		}
	}
}
