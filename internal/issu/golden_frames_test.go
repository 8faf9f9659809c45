package issu_test

import (
	"testing"

	"microp4/internal/golden"
	"microp4/internal/issu"
)

// TestGoldenFrames pins one encoded sample of each upgrade message type
// against testdata/frames.golden.
func TestGoldenFrames(t *testing.T) {
	golden.Frame(t, "UpgradeOp", issu.EncodeUpgradeOp(&issu.UpgradeOp{
		Session: 1, Seq: 1, Kind: issu.OpStage, Program: "P9v2",
		Main: issu.Module{Name: "p9_fw_v2.up4", Source: "program P9Fw {}"},
		Modules: []issu.Module{{Name: "Flowstate.up4", Source: "// flowstate"},
			{Name: "L3.up4", Source: "// l3"}},
		CanaryN: 64,
	}))
	golden.Frame(t, "UpgradeReply", issu.EncodeUpgradeReply(&issu.UpgradeReply{
		Session: 1, Seq: 3, Ok: false, Phase: issu.PhaseRolledBack, Gen: 2,
		Mirrored: 10, Remaining: 54, Diverged: true,
		Detail: "canary diverged: packet 3 (tick 9): output 0: port 1 vs 0",
	}))
}
