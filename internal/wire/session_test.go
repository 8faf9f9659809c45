package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"microp4"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/sim"
)

// TestWindowReplay: a remembered (session, seq) replays its reply;
// other sequences and other sessions do not.
func TestWindowReplay(t *testing.T) {
	w := NewWindow(4)
	if _, ok := w.Replay(1, 1); ok {
		t.Fatal("empty window replayed something")
	}
	w.Remember(1, 1, []byte("one"))
	if got, ok := w.Replay(1, 1); !ok || string(got) != "one" {
		t.Fatalf("Replay(1,1) = %q, %v; want the cached reply", got, ok)
	}
	if _, ok := w.Replay(1, 2); ok {
		t.Error("an unseen sequence replayed")
	}
	if _, ok := w.Replay(2, 1); ok {
		t.Error("another session's sequence replayed")
	}
}

// TestWindowEvictionOrder is the window-of-2 case: the third reply
// evicts the first, in insertion order — also when the sequence numbers
// arrived out of order — and remembering a cached seq again evicts
// nothing.
func TestWindowEvictionOrder(t *testing.T) {
	w := NewWindow(2)
	for seq := uint64(1); seq <= 3; seq++ {
		w.Remember(5, seq, []byte{byte(seq)})
	}
	if _, ok := w.Replay(5, 1); ok {
		t.Error("seq 1 survived a window of 2 holding 2 and 3")
	}
	for _, seq := range []uint64{2, 3} {
		if _, ok := w.Replay(5, seq); !ok {
			t.Errorf("seq %d evicted too early", seq)
		}
	}
	w.Remember(5, 3, []byte{33}) // a duplicate is not a new entry
	if _, ok := w.Replay(5, 2); !ok {
		t.Error("re-remembering seq 3 evicted seq 2")
	}
	// Reordered arrival: 132 before 131. Insertion order, not sequence
	// order, picks the victim, so no key is ever skipped.
	r := NewWindow(2)
	for _, seq := range []uint64{130, 132, 131} {
		r.Remember(9, seq, nil)
	}
	if _, ok := r.Replay(9, 130); ok {
		t.Error("oldest-inserted seq 130 survived")
	}
	if n := len(r.sessions[9].bySeq); n != 2 {
		t.Errorf("window of 2 holds %d replies", n)
	}
}

// TestWindowBoundedUnderShuffle feeds 4× the window of shuffled
// sequence numbers: the cache never exceeds the window.
func TestWindowBoundedUnderShuffle(t *testing.T) {
	w := NewWindow(DedupWindow)
	seqs := rand.New(rand.NewSource(1)).Perm(4 * DedupWindow)
	for _, seq := range seqs {
		w.Remember(7, uint64(seq), nil)
		if n := len(w.sessions[7].bySeq); n > DedupWindow {
			t.Fatalf("cache holds %d replies, window is %d", n, DedupWindow)
		}
	}
	if n := len(w.sessions[7].bySeq); n != DedupWindow {
		t.Errorf("cache holds %d replies after the flood, want %d", n, DedupWindow)
	}
}

// A minimal message family for driving the Caller without any real
// protocol: a ping carries a number, the pong echoes it.
var (
	kindPing = Kind{Family: "test", Magic: 0x7E, Type: 1, Name: "a ping"}
	kindPong = Kind{Family: "test", Magic: 0x7E, Type: 2, Name: "a pong"}
)

type ping struct{ n uint64 }

func (p *ping) Encode(session, seq uint64) []byte {
	w := kindPing.Begin(Header{Session: session, Seq: seq}, 32)
	w.U64(p.n)
	return w.Finish()
}
func (p *ping) Label() string { return fmt.Sprintf("ping %d", p.n) }

type pong struct{ session, seq, n uint64 }

func (p *pong) Channel() (uint64, uint64) { return p.session, p.seq }
func (p *pong) Outcome() (string, string) { return "reply", " ok" }

func encodePong(p *pong) []byte {
	w := kindPong.Begin(Header{Session: p.session, Seq: p.seq}, 32)
	w.U64(p.n)
	return w.Finish()
}

func decodePong(data []byte) (*pong, error) {
	r, h := kindPong.Open(data)
	p := &pong{session: h.Session, seq: h.Seq, n: r.U64()}
	return p, r.Finish()
}

// echo answers every decodable ping on port 9 through a Window.
type echo struct {
	window *Window
	served int // fresh (non-duplicate) pings
}

func (e *echo) Process(pkt []byte, _ uint64) ([]microp4.Output, error) {
	r, h := kindPing.Open(pkt)
	n := r.U64()
	if r.Finish() != nil {
		return nil, nil
	}
	reply, dup := e.window.Replay(h.Session, h.Seq)
	if !dup {
		e.served++
		reply = encodePong(&pong{session: h.Session, seq: h.Seq, n: n})
		e.window.Remember(h.Session, h.Seq, reply)
	}
	return []microp4.Output{{Port: 9, Data: reply}}, nil
}

type rig struct {
	n      *netsim.Network
	caller *Caller[*pong]
	agent  *echo
	events []string
	reg    *obs.Registry
}

func newRig(t *testing.T, seed uint64, fm netsim.FaultModel) *rig {
	t.Helper()
	r := &rig{n: netsim.New(seed), agent: &echo{window: NewWindow(DedupWindow)}, reg: obs.NewRegistry()}
	r.n.Bus().Subscribe(func(e sim.TraceEvent) {
		r.events = append(r.events, fmt.Sprintf("t=%d %s %s %s", r.n.Now(), e.Module, e.Name, e.Detail))
	})
	var err error
	r.caller, err = NewCaller(r.n, "ctl", CallerConfig[*pong]{
		Kind: "test", Seed: seed, Decode: decodePong,
		Retries:  r.reg.Counter("retries", ""),
		Timeouts: r.reg.Counter("timeouts", ""),
		BreakerGauge: func(peer string) *obs.Gauge {
			return r.reg.Gauge("breaker", "", obs.L("peer", peer))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.n.AddSwitch("s1", r.agent); err != nil {
		t.Fatal(err)
	}
	if err := r.caller.AddPeer("s1", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.n.Connect("ctl", 1, "s1", 9, fm); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if _, err := r.n.Run(0); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) count(event string) int {
	n := 0
	for _, e := range r.events {
		if strings.Contains(e, " ctl "+event+" ") {
			n++
		}
	}
	return n
}

// TestCallerAtLeastOnceExactlyOnce: over a lossy, duplicating link every
// call resolves with its own reply, retransmissions happened, and the
// agent's window applied each request once.
func TestCallerAtLeastOnceExactlyOnce(t *testing.T) {
	r := newRig(t, 3, netsim.FaultModel{Drop: 0.3, Duplicate: 0.2, Reorder: 0.2})
	const calls = 20
	got := map[uint64]bool{}
	for i := uint64(0); i < calls; i++ {
		err := r.caller.Call("s1", &ping{n: i}, nil, func(p *pong, err error) {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			} else if p.n != i {
				t.Errorf("call %d resolved with pong %d", i, p.n)
			}
			got[i] = true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	if len(got) != calls {
		t.Errorf("%d of %d calls resolved", len(got), calls)
	}
	if r.agent.served != calls {
		t.Errorf("agent applied %d requests, want exactly %d", r.agent.served, calls)
	}
	if r.count("retry") == 0 || r.count("stale") == 0 {
		t.Errorf("%d retries, %d stale replies: the link did not exercise retransmission and dedup",
			r.count("retry"), r.count("stale"))
	}
	if got := r.reg.Counter("retries", "").Value(); got != uint64(r.count("retry")) {
		t.Errorf("retries counter %d, %d retry events", got, r.count("retry"))
	}
}

// TestCallerScheduleDeterministicPerSeed: the whole event sequence —
// sends, timeouts, backoffs with their jittered delays, retries — is
// identical for one seed and different for another.
func TestCallerScheduleDeterministicPerSeed(t *testing.T) {
	schedule := func(seed uint64) string {
		r := newRig(t, seed, netsim.FaultModel{Drop: 0.4})
		for i := uint64(0); i < 6; i++ {
			_ = r.caller.Call("s1", &ping{n: i}, nil, func(*pong, error) {})
		}
		r.run(t)
		return strings.Join(r.events, "\n")
	}
	a, b, c := schedule(11), schedule(11), schedule(12)
	if a != b {
		t.Errorf("same seed, different schedule:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if a == c {
		t.Error("different seeds produced the identical schedule")
	}
	if !strings.Contains(a, "backoff") {
		t.Errorf("no backoff in the schedule — the link did not force a retry:\n%s", a)
	}
}

// TestCallerGivesUpAndHoldsOnOpenBreaker: against a dead peer every call
// resolves ErrUnreachable after DefaultMaxAttempts sends, the breaker
// opens (gauge leaves 0), and sends while it is open are held rather
// than burned as attempts.
func TestCallerGivesUpAndHoldsOnOpenBreaker(t *testing.T) {
	r := newRig(t, 5, netsim.FaultModel{Drop: 1})
	var errs []error
	for i := uint64(0); i < 3; i++ {
		_ = r.caller.Call("s1", &ping{n: i}, nil, func(_ *pong, err error) { errs = append(errs, err) })
	}
	r.run(t)
	if len(errs) != 3 {
		t.Fatalf("%d of 3 calls resolved", len(errs))
	}
	for _, err := range errs {
		if !errors.Is(err, ErrUnreachable) {
			t.Errorf("err = %v, want ErrUnreachable", err)
		}
	}
	if sends := r.count("send") + r.count("retry"); sends != 3*DefaultMaxAttempts {
		t.Errorf("%d sends for 3 calls, want %d", sends, 3*DefaultMaxAttempts)
	}
	if r.count("breaker-hold") == 0 {
		t.Error("no send was held while the breaker was open")
	}
	if g := r.reg.Gauge("breaker", "", obs.L("peer", "s1")); g.Value() == int64(BreakerClosed) {
		t.Error("breaker still closed after a fully dead channel")
	}
}

// TestCallerCancelAll: abandoned calls never resolve, leave no timer
// behind, and their late replies are dropped as stale.
func TestCallerCancelAll(t *testing.T) {
	r := newRig(t, 7, netsim.FaultModel{})
	resolved := false
	_ = r.caller.Call("s1", &ping{n: 1}, nil, func(*pong, error) { resolved = true })
	r.caller.CancelAll()
	st, err := r.n.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if resolved {
		t.Error("a cancelled call resolved")
	}
	if r.count("stale") != 1 {
		t.Errorf("%d stale events, want the cancelled call's reply dropped as stale", r.count("stale"))
	}
	if r.count("timeout") != 0 || r.n.Now() >= Timeout {
		t.Errorf("a timer outlived CancelAll (now t=%d, %d steps)", r.n.Now(), st.Steps)
	}
}

// TestCallerDropsForeignAndUndecodable: a reply for another session and
// a frame that fails strict decode reach no call.
func TestCallerDropsForeignAndUndecodable(t *testing.T) {
	r := newRig(t, 9, netsim.FaultModel{Drop: 1}) // nothing comes back on its own
	resolved := false
	_ = r.caller.Call("s1", &ping{n: 1}, nil, func(_ *pong, err error) { resolved = err == nil })
	foreign := encodePong(&pong{session: 0xBAD, seq: 1})
	corrupt := encodePong(&pong{session: SessionID(9, "s1"), seq: 1})
	corrupt[len(corrupt)/2] ^= 0x10
	for _, frame := range [][]byte{foreign, corrupt} {
		if err := r.n.Inject("ctl", 1, frame); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t)
	if resolved {
		t.Error("a foreign or corrupt reply resolved the call")
	}
	if r.count("drop") != 2 {
		t.Errorf("%d drop events, want 2:\n%s", r.count("drop"), strings.Join(r.events, "\n"))
	}
}

// TestFanout: all runs once, after every peer's resolution was shown to
// each.
func TestFanout(t *testing.T) {
	r := newRig(t, 13, netsim.FaultModel{Drop: 0.2})
	seen, done := 0, 0
	r.caller.Fanout([]string{"s1", "s1", "s1"}, nil,
		func(i int) Request { return &ping{n: uint64(i)} },
		func(i int, p *pong, err error) {
			if err != nil || p.n != uint64(i) {
				t.Errorf("request %d resolved with %+v, %v", i, p, err)
			}
			if done != 0 {
				t.Error("all ran before the last resolution")
			}
			seen++
		},
		func() { done++ })
	r.run(t)
	if seen != 3 || done != 1 {
		t.Errorf("each ran %d times, all %d; want 3 and 1", seen, done)
	}
}
