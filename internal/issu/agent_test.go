package issu_test

import (
	"math/rand"
	"testing"

	"microp4/internal/issu"
	"microp4/internal/netsim"
	"microp4/internal/wire"
)

// TestAgentReplyCacheBoundedUnderReorder feeds four windows' worth of
// shuffled sequence numbers through the agent. The reply cache used to
// evict exactly one key (maxSeq-window) per fresh op, so a reordered
// arrival (…130, 132, 131) skipped a key and cached it forever. With the
// shared FIFO window, exactly the window's most recent arrivals are
// still answered from cache and everything older is judged afresh.
func TestAgentReplyCacheBoundedUnderReorder(t *testing.T) {
	h := newHarness(t, 1, netsim.FaultModel{})
	ask := func(seq uint64, kind issu.OpKind) *issu.UpgradeReply {
		t.Helper()
		outs, err := h.agent.Process(issu.EncodeUpgradeOp(&issu.UpgradeOp{Session: 5, Seq: seq, Kind: kind}), upgradePort)
		if err != nil || len(outs) != 1 {
			t.Fatalf("seq %d: outputs %v, err %v", seq, outs, err)
		}
		rep, err := issu.DecodeUpgradeReply(outs[0].Data)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	arrivals := rand.New(rand.NewSource(1)).Perm(4 * wire.DedupWindow)
	for _, seq := range arrivals {
		if rep := ask(uint64(seq), issu.OpQuery); !rep.Ok {
			t.Fatalf("query seq %d refused: %+v", seq, rep)
		}
	}
	// Re-send every seq as a commit, newest arrival first. A cached seq
	// replays its query's Ok reply; an evicted one is applied, and an
	// idle upgrader refuses to commit.
	replayed := 0
	for i := len(arrivals) - 1; i >= 0; i-- {
		if ask(uint64(arrivals[i]), issu.OpCommit).Ok {
			replayed++
			if age := len(arrivals) - 1 - i; age >= wire.DedupWindow {
				t.Fatalf("arrival %d ago still cached beyond a window of %d", age, wire.DedupWindow)
			}
		}
	}
	if replayed != wire.DedupWindow {
		t.Errorf("%d sequence numbers answered from cache, want the window's %d", replayed, wire.DedupWindow)
	}
}
