package ctrlplane_test

import (
	"encoding/json"
	"testing"

	"microp4/internal/golden"
	"microp4/internal/netsim"
	"microp4/internal/trace"
)

// collectTxnSpans splits a recorder's transaction spans into the root
// (TraceID == SpanID) and the 2PC phase spans keyed by name.
func collectTxnSpans(t *testing.T, rec *trace.Recorder) (*trace.Span, map[string]*trace.Span) {
	t.Helper()
	var root *trace.Span
	phases := map[string]*trace.Span{}
	for _, sp := range rec.Spans() {
		if sp.Kind != "txn" {
			continue
		}
		if sp.SpanID == sp.TraceID {
			if root != nil {
				t.Fatal("more than one txn root span recorded")
			}
			root = sp
		} else {
			if phases[sp.Name] != nil {
				t.Fatalf("duplicate %q phase span", sp.Name)
			}
			phases[sp.Name] = sp
		}
	}
	return root, phases
}

// TestTransactionTraceSpans commits the standard rollout over lossy
// links with tracing on: the recorder must hold one root span plus
// stage/prepare/commit phase children carrying every per-peer send and
// the retries the losses forced.
func TestTransactionTraceSpans(t *testing.T) {
	rec := trace.NewRecorder(1024)
	s := newScenario(t, 0x5EED, lossy)
	s.client.SetTracing(rec)
	ops := updatePlan(s.client.Peers())
	s.transact(t, ops)
	if !s.result.Committed {
		t.Fatalf("transaction aborted: %+v", *s.result)
	}

	root, phases := collectTxnSpans(t, rec)
	if root == nil {
		t.Fatal("no txn root span recorded")
	}
	committed := false
	for _, e := range root.Events {
		if e.Kind == "committed" {
			committed = true
		}
	}
	if !committed {
		t.Errorf("root span lacks a committed event: %+v", root.Events)
	}
	if root.End < root.Start {
		t.Errorf("root span ends (t=%d) before it starts (t=%d)", root.End, root.Start)
	}

	for _, name := range []string{"stage", "prepare", "commit"} {
		sp := phases[name]
		if sp == nil {
			t.Fatalf("missing %q phase span", name)
		}
		if sp.TraceID != root.TraceID || sp.ParentID != root.SpanID {
			t.Errorf("%s span not parented under the root: trace %d parent %d, want %d/%d",
				name, sp.TraceID, sp.ParentID, root.TraceID, root.SpanID)
		}
	}
	if phases["abort"] != nil {
		t.Error("committed transaction recorded an abort phase span")
	}

	sends, retries := 0, 0
	for _, sp := range phases {
		for _, e := range sp.Events {
			switch e.Kind {
			case "send":
				sends++
			case "retry":
				retries++
			}
		}
	}
	// One first-attempt send per staged op plus one per participant in
	// each of prepare and commit.
	wantSends := len(ops) + 2*len(s.client.Peers())
	if sends != wantSends {
		t.Errorf("phase spans carry %d send events, want %d", sends, wantSends)
	}
	if retries == 0 {
		t.Error("no retry events on any phase span — lossy links must have forced retransmissions")
	}
}

// TestUnreachablePeerTraceAborts points the plan at a dead-linked peer:
// the root span must end aborted and the abort phase must be present.
func TestUnreachablePeerTraceAborts(t *testing.T) {
	rec := trace.NewRecorder(1024)
	s := newScenario(t, 0x5EED, netsim.FaultModel{})
	s.n.SetLinkDown("ctrl", 2, true)
	s.client.SetTracing(rec)
	s.transact(t, updatePlan(s.client.Peers()))
	if s.result.Committed {
		t.Fatalf("transaction committed through a dead link: %+v", *s.result)
	}

	root, phases := collectTxnSpans(t, rec)
	if root == nil {
		t.Fatal("no txn root span recorded")
	}
	if root.Err == "" {
		t.Error("aborted transaction's root span has no Err")
	}
	if phases["abort"] == nil {
		t.Error("aborted transaction recorded no abort phase span")
	}
	timeouts := 0
	for _, sp := range phases {
		for _, e := range sp.Events {
			if e.Kind == "timeout" {
				timeouts++
			}
		}
	}
	if timeouts == 0 {
		t.Error("no timeout events on any phase span despite an unreachable peer")
	}
}

// TestTransactionTraceDeterministicPerSeed reruns the identical lossy
// scenario: the canonical span JSON must be byte-identical.
func TestTransactionTraceDeterministicPerSeed(t *testing.T) {
	run := func() []byte {
		rec := trace.NewRecorder(1024)
		s := newScenario(t, 0x5EED, lossy)
		s.client.SetTracing(rec)
		s.transact(t, updatePlan(s.client.Peers()))
		var canon []trace.Span
		for _, sp := range rec.Spans() {
			canon = append(canon, sp.Canonical())
		}
		b, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Errorf("same seed, different span stream:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	golden.Signature(t, t.Name(), a)
}
