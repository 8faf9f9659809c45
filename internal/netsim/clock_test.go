package netsim

import (
	"errors"
	"fmt"
	"testing"

	"microp4"
)

// TestTimersFireInVirtualTimeOrder: timers fire only once the delivery
// queue is quiet, earliest deadline first, with creation order breaking
// ties; cancelled timers never fire; Now advances to each deadline.
func TestTimersFireInVirtualTimeOrder(t *testing.T) {
	n := New(1)
	var fired []string
	n.After(30, func() { fired = append(fired, fmt.Sprintf("c@%d", n.Now())) })
	n.After(10, func() { fired = append(fired, fmt.Sprintf("a@%d", n.Now())) })
	cancel := n.After(20, func() { fired = append(fired, "cancelled") })
	n.After(20, func() { fired = append(fired, fmt.Sprintf("b@%d", n.Now())) })
	cancel()
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "[a@10 b@20 c@30]"
	if got := fmt.Sprint(fired); got != want {
		t.Errorf("fired = %v, want %v", got, want)
	}
}

// TestTimerCanSendPackets: a timer callback that sends traffic (the
// retransmission pattern) wakes the network back up.
func TestTimerCanSendPackets(t *testing.T) {
	n := New(2)
	if err := n.AddSwitch("a", &fwd{}); err != nil {
		t.Fatal(err)
	}
	n.After(5, func() {
		if err := n.SendFrom("a", 1, []byte("late")); err != nil {
			t.Error(err)
		}
	})
	st, err := n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Egressed != 1 {
		t.Errorf("egressed = %d, want the timer-sent packet", st.Egressed)
	}
}

// TestDeliveriesBeatTimers: a queued packet is always processed before
// a due timer — a reply already in flight must win its race against the
// timeout that would retransmit it.
func TestDeliveriesBeatTimers(t *testing.T) {
	n := New(3)
	if err := n.AddSwitch("a", &fwd{}); err != nil {
		t.Fatal(err)
	}
	var order []string
	n.After(1, func() { order = append(order, "timer") })
	_ = n.Inject("a", 0, []byte("pkt"))
	// A second injection mid-run keeps the queue busy past the timer's
	// nominal deadline.
	if _, err := n.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "timer" {
		t.Fatalf("order = %v", order)
	}
	if n.Now() < 1 {
		t.Errorf("clock did not advance: %d", n.Now())
	}
}

// TestSelfRearmingTimerHitsBudget: a timer that always reschedules
// itself must trip the step budget instead of hanging Run.
func TestSelfRearmingTimerHitsBudget(t *testing.T) {
	n := New(4)
	var rearm func()
	rearm = func() { n.After(1, rearm) }
	n.After(1, rearm)
	if _, err := n.Run(50); err == nil {
		t.Fatal("self-rearming timer did not exhaust the budget")
	}
}

// TestSendFromUnknownNode: SendFrom validates its origin.
func TestSendFromUnknownNode(t *testing.T) {
	n := New(5)
	if err := n.SendFrom("ghost", 0, []byte("x")); err == nil {
		t.Error("SendFrom from unknown node accepted")
	}
}

// TestChurnSchemaShapedKeys: with a ControlAPI attached, churned
// entries take each column's kind and width instead of the blind
// 16-bit exact fallback.
func TestChurnSchemaShapedKeys(t *testing.T) {
	api := &microp4.ControlAPI{Tables: []microp4.ControlTable{{
		Name: "lpm_tbl",
		Keys: []microp4.ControlKey{
			{Field: "dst", Width: 32, MatchKind: "lpm"},
			{Field: "proto", Width: 8, MatchKind: "exact"},
		},
		Actions: []microp4.ControlAction{{
			Name:   "route",
			Params: []microp4.ControlActionParam{{Name: "nh", Width: 16}},
		}},
	}}}
	var keys [][]microp4.Key
	var args [][]uint64
	c := NewChurn(7, &shapeTarget{keys: &keys, args: &args}, ChurnConfig{
		Tables:  []string{"lpm_tbl"},
		Actions: map[string]string{"lpm_tbl": "route"},
		API:     api,
	})
	c.StepN(300)
	if len(keys) == 0 {
		t.Fatal("no entries churned")
	}
	for _, ks := range keys {
		if len(ks) != 2 {
			t.Fatalf("entry has %d keys, want 2 (schema-shaped)", len(ks))
		}
	}
	for _, as := range args {
		if len(as) != 1 {
			t.Fatalf("entry has %d args, want 1 (schema-shaped)", len(as))
		}
		if as[0] > 0xFFFF {
			t.Fatalf("arg %#x exceeds the schema's bit<16>", as[0])
		}
	}
}

// TestChurnRejectAccounting: a target's rejections are
// counted on the churn and (when wired) the metrics counter.
func TestChurnRejectAccounting(t *testing.T) {
	rejecting := &rejectingTarget{}
	c := NewChurn(9, rejecting, ChurnConfig{
		Tables:  []string{"t"},
		Actions: map[string]string{"t": "a"},
	})
	c.StepN(50)
	if c.Rejects() != c.Ops() {
		t.Errorf("rejects = %d of %d ops, want all rejected", c.Rejects(), c.Ops())
	}
}

// shapeTarget records the shapes of churned operations.
type shapeTarget struct {
	keys *[][]microp4.Key
	args *[][]uint64
}

func (s *shapeTarget) TryAddEntry(table string, keys []microp4.Key, action string, args ...uint64) error {
	*s.keys = append(*s.keys, keys)
	*s.args = append(*s.args, args)
	return nil
}
func (s *shapeTarget) TrySetDefault(table, action string, args ...uint64) error {
	*s.args = append(*s.args, args)
	return nil
}
func (s *shapeTarget) TryClearTable(string) error                   { return nil }
func (s *shapeTarget) TrySetMulticastGroup(uint64, ...uint64) error { return nil }

// rejectingTarget refuses everything.
type rejectingTarget struct{}

var errNo = errors.New("no")

func (r *rejectingTarget) TryAddEntry(string, []microp4.Key, string, ...uint64) error {
	return errNo
}
func (r *rejectingTarget) TrySetDefault(string, string, ...uint64) error { return errNo }
func (r *rejectingTarget) TryClearTable(string) error                    { return errNo }
func (r *rejectingTarget) TrySetMulticastGroup(uint64, ...uint64) error  { return errNo }
