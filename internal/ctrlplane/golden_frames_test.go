package ctrlplane_test

import (
	"testing"

	"microp4/internal/ctrlplane"
	"microp4/internal/flow"
	"microp4/internal/golden"
)

// TestGoldenFrames pins one encoded sample of each ctrlplane message
// type against testdata/frames.golden, so a codec change that moves a
// single wire byte is a reviewed golden diff.
func TestGoldenFrames(t *testing.T) {
	golden.Frame(t, "CtrlOp", ctrlplane.EncodeCtrlOp(&ctrlplane.CtrlOp{
		Session: 0xDEADBEEF01, Seq: 2, Txn: 3, Kind: ctrlplane.OpAddEntry,
		Table: "acl_tbl", Action: "deny",
		Keys: []ctrlplane.CtrlKey{ctrlplane.Any(), ctrlplane.Exact(42),
			ctrlplane.Ternary(6, 0xFF), ctrlplane.LPM(0x20010DB8, 32)},
		Args: []uint64{100, 7}, Group: 9, Ports: []uint64{1, 2, 3},
	}))
	golden.Frame(t, "CtrlReply", ctrlplane.EncodeCtrlReply(&ctrlplane.CtrlReply{
		Session: 0xFFFFFFFFFFFFFFFF, Seq: 9, Status: ctrlplane.StatusRejected,
		Class: "key-width", Reason: "key 0 value 0x10000 exceeds 16 bits",
	}))
	golden.Frame(t, "FlowSync", ctrlplane.EncodeFlowSync(&ctrlplane.FlowSync{
		Session: 0xFEED01, Seq: 3, Kind: ctrlplane.SyncResync, Table: "fs_i.conn", Clock: 99,
		Entries: []ctrlplane.FlowRec{
			{Key: flow.Key{SrcAddr: 1, DstAddr: 2, Proto: 6, SrcPort: 3, DstPort: 4},
				State: flow.StateEstablished, Expire: 65635, Val: 0xB00F},
			{Key: flow.Key{SrcAddr: 5, DstAddr: 6, Proto: 17, SrcPort: 7, DstPort: 8},
				State: flow.StateNew, Expire: 355},
		},
	}))
	golden.Frame(t, "FlowAck", ctrlplane.EncodeFlowAck(&ctrlplane.FlowAck{
		Session: 0xFFFFFFFFFFFFFFFF, Seq: 9, Applied: 256,
	}))
}
