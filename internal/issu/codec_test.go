package issu_test

import (
	"testing"

	"microp4/internal/issu"
	"microp4/internal/wiretest"
)

// The codec checks live in the shared gate (internal/wiretest, run in
// full by internal/wire's TestCodecGate and FuzzDecode). The names
// below are the historical per-message tests, kept as entry points into
// the rows and properties that replaced their bodies.

func TestUpgradeWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, wiretest.RowNamed(t, "UpgradeOp"))
	wiretest.RoundTrip(t, wiretest.RowNamed(t, "UpgradeReply"))
}

func TestUpgradeWireRejects(t *testing.T) {
	for _, name := range []string{"UpgradeOp", "UpgradeReply"} {
		wiretest.Foreign(t, wiretest.RowNamed(t, name))
		wiretest.BitFlips(t, wiretest.RowNamed(t, name))
		wiretest.Truncations(t, wiretest.RowNamed(t, name))
	}
}

func TestUpgradeWireCaps(t *testing.T) {
	wiretest.Caps(t, wiretest.RowNamed(t, "UpgradeOp"))
	wiretest.Caps(t, wiretest.RowNamed(t, "UpgradeReply"))
}

func FuzzDecodeUpgradeOp(f *testing.F)    { wiretest.Fuzz(f) }
func FuzzDecodeUpgradeReply(f *testing.F) { wiretest.Fuzz(f) }

// TestPhaseAndKindStrings pins the diagnostic names.
func TestPhaseAndKindStrings(t *testing.T) {
	for want, got := range map[string]string{
		"idle": issu.PhaseIdle.String(), "staged": issu.PhaseStaged.String(),
		"canary": issu.PhaseCanary.String(), "committed": issu.PhaseCommitted.String(),
		"rolled-back": issu.PhaseRolledBack.String(), "phase(9)": issu.Phase(9).String(),
		"stage": issu.OpStage.String(), "query": issu.OpQuery.String(),
		"commit": issu.OpCommit.String(), "abort": issu.OpAbort.String(), "op(0)": issu.OpKind(0).String(),
	} {
		if want != got {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
