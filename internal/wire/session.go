package wire

import (
	"errors"
	"fmt"
	"math/rand"

	"microp4"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

// mix is splitmix64, the seed-mixing finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SessionID derives a channel's nonzero, per-seed-stable session id
// from a seed and the name that distinguishes the channel.
func SessionID(seed uint64, name string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a 64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return mix(seed^h) | 1
}

// Window is the agent side of at-least-once delivery made exactly-once:
// a per-session cache of encoded replies keyed by sequence number. A
// request whose (session, seq) is still cached is a duplicate and is
// answered from the cache, never applied again. Each session keeps its
// last size replies, evicted in insertion order whatever order the seqs
// arrived in. Only frames that passed the family's full strict decode
// may reach a Window.
type Window struct {
	size     int
	sessions map[uint64]*replies
}

type replies struct {
	bySeq map[uint64][]byte
	ring  []uint64 // cached seqs; once full, ring[next] is the oldest
	next  int
}

// NewWindow keeps size replies per session (agents pass DedupWindow).
func NewWindow(size int) *Window {
	return &Window{size: size, sessions: make(map[uint64]*replies)}
}

// Replay returns the cached reply for (session, seq), if any.
func (w *Window) Replay(session, seq uint64) ([]byte, bool) {
	s := w.sessions[session]
	if s == nil {
		return nil, false
	}
	reply, ok := s.bySeq[seq]
	return reply, ok
}

// Remember caches the reply to (session, seq), evicting the session's
// oldest once size are held.
func (w *Window) Remember(session, seq uint64, reply []byte) {
	s := w.sessions[session]
	if s == nil {
		s = &replies{bySeq: make(map[uint64][]byte)}
		w.sessions[session] = s
	}
	if _, dup := s.bySeq[seq]; !dup {
		if len(s.ring) < w.size {
			s.ring = append(s.ring, seq)
		} else {
			delete(s.bySeq, s.ring[s.next])
			s.ring[s.next] = seq
			s.next = (s.next + 1) % w.size
		}
	}
	s.bySeq[seq] = reply
}

// ErrUnreachable wraps a give-up: every attempt at a request timed out
// (match with errors.Is).
var ErrUnreachable = errors.New("wire: peer unreachable")

// Request is one message a Caller can send reliably.
type Request interface {
	// Encode stamps the channel ids into the message and serializes it.
	Encode(session, seq uint64) []byte
	// Label describes the request in "send" events.
	Label() string
}

// Reply is the decoded answer to a Request.
type Reply interface {
	// Channel returns the session and sequence number the reply echoes.
	Channel() (session, seq uint64)
	// Outcome names the event the reply resolves its call with and the
	// text that follows "<peer> seq <n>" in it, separator included.
	Outcome() (event, detail string)
}

// CallerConfig wires a Caller into its node.
type CallerConfig[R Reply] struct {
	// Kind labels the caller's trace events ("ctrl", "issu").
	Kind string
	// Seed drives the retry-jitter stream and session-id derivation.
	Seed uint64
	// MaxAttempts bounds the sends per request (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Decode is the family's strict reply decoder.
	Decode func([]byte) (R, error)
	// Retries and Timeouts count retransmissions and expired awaits;
	// BreakerGauge returns a peer's breaker-state gauge. All optional.
	Retries, Timeouts *obs.Counter
	BreakerGauge      func(peer string) *obs.Gauge
}

// Caller is the controller side of every request/reply protocol in the
// tree, and the netsim node its requests leave from: per-peer channels
// with seeded session ids and monotonic sequence numbers, and for each
// request send → (reply | timeout → backoff → resend)* → done, gated by
// a per-channel circuit breaker. All of it runs on the network's virtual
// clock with jitter from one seeded stream, so identical seed (and
// network) means an identical retry schedule, tick for tick. Timers and
// callbacks fire inside Run, single-threaded.
type Caller[R Reply] struct {
	n     *netsim.Network
	name  string
	cfg   CallerConfig[R]
	rng   *rand.Rand
	peers []*peer[R] // AddPeer order
}

// peer is one channel to one agent.
type peer[R Reply] struct {
	name     string
	port     uint64 // the caller's local port wired to this peer
	session  uint64
	nextSeq  uint64
	inflight map[uint64]*call[R]
	br       breaker
	// Timer owners, for the netsim watchdog's parked-node report.
	awaitOwner, retryOwner, holdOwner string
}

// call is one request's lifecycle. Exactly one timer (await, backoff or
// breaker hold) is pending for it until it resolves.
type call[R Reply] struct {
	p        *peer[R]
	seq      uint64
	req      Request
	data     []byte
	attempts int
	cancel   func() // the pending timer
	done     func(R, error)
	span     *trace.Span // events are mirrored here when non-nil
}

// NewCaller adds a node called name to the network: the caller.
func NewCaller[R Reply](n *netsim.Network, name string, cfg CallerConfig[R]) (*Caller[R], error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	c := &Caller[R]{n: n, name: name, cfg: cfg,
		rng: rand.New(rand.NewSource(int64(mix(cfg.Seed ^ 0xC0117E01))))}
	return c, n.AddSwitch(name, c)
}

// AddPeer declares a channel: requests to peerName leave the node on
// localPort (Connect that port to the agent's port).
func (c *Caller[R]) AddPeer(peerName string, localPort uint64) error {
	for _, p := range c.peers {
		if p.name == peerName {
			return fmt.Errorf("wire: duplicate peer %q", peerName)
		}
		if p.port == localPort {
			return fmt.Errorf("wire: port %d already carries peer %q", localPort, p.name)
		}
	}
	p := &peer[R]{
		name:       peerName,
		port:       localPort,
		session:    SessionID(c.cfg.Seed, peerName),
		nextSeq:    1,
		inflight:   make(map[uint64]*call[R]),
		awaitOwner: c.name + " await " + peerName,
		retryOwner: c.name + " retry " + peerName,
		holdOwner:  c.name + " breaker-hold " + peerName,
	}
	if c.cfg.BreakerGauge != nil {
		p.br.gauge = c.cfg.BreakerGauge(peerName)
	}
	c.peers = append(c.peers, p)
	return nil
}

// Peers returns the peer names in AddPeer order.
func (c *Caller[R]) Peers() []string {
	names := make([]string, len(c.peers))
	for i, p := range c.peers {
		names[i] = p.name
	}
	return names
}

func (c *Caller[R]) peer(name string) *peer[R] {
	for _, p := range c.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

// HasPeer reports whether peerName was declared.
func (c *Caller[R]) HasPeer(peerName string) bool { return c.peer(peerName) != nil }

// Call sends req to a peer. done fires during the network run with the
// decoded reply, or with an error wrapping ErrUnreachable once
// MaxAttempts sends have all timed out. The call's lifecycle events are
// mirrored onto span when it is non-nil.
func (c *Caller[R]) Call(peerName string, req Request, span *trace.Span, done func(R, error)) error {
	p := c.peer(peerName)
	if p == nil {
		return fmt.Errorf("wire: unknown peer %q", peerName)
	}
	cl := &call[R]{p: p, seq: p.nextSeq, req: req, done: done, span: span}
	p.nextSeq++
	cl.data = req.Encode(p.session, cl.seq)
	p.inflight[cl.seq] = cl
	c.send(cl)
	return nil
}

// Fanout is one phase of a multi-peer protocol: the i-th request, built
// by mk, goes to peers[i]; each sees every resolution and all runs
// after the last. When a resolution makes the owner CancelAll, the
// phase simply never completes.
func (c *Caller[R]) Fanout(peers []string, span *trace.Span, mk func(i int) Request,
	each func(i int, rep R, err error), all func()) {
	pending := len(peers)
	for i, name := range peers {
		_ = c.Call(name, mk(i), span, func(rep R, err error) {
			each(i, rep, err)
			if pending--; pending == 0 {
				all()
			}
		})
	}
}

// CancelAll abandons every in-flight call without resolving it: timers
// are cancelled and late replies will be dropped as stale.
func (c *Caller[R]) CancelAll() {
	for _, p := range c.peers {
		for seq, cl := range p.inflight {
			cl.cancel()
			delete(p.inflight, seq)
		}
	}
}

// send transmits (or, when the breaker is open, defers) one attempt.
func (c *Caller[R]) send(cl *call[R]) {
	p, now := cl.p, c.n.Now()
	if !p.br.allow(now) {
		// Channel is broken: hold the request until the breaker's
		// half-open probe time instead of burning an attempt on it.
		d := uint64(1)
		if at := p.br.retryAt(); at > now {
			d = at - now
		}
		c.note(cl, "breaker-hold", func() string { return fmt.Sprintf(": %s until t+%d", p.br.state, d) })
		cl.cancel = c.n.AfterNamed(p.holdOwner, d, func() { c.send(cl) })
		return
	}
	cl.attempts++
	if cl.attempts > 1 {
		c.cfg.Retries.Inc()
		c.note(cl, "retry", func() string { return fmt.Sprintf(" attempt %d", cl.attempts) })
	} else {
		c.note(cl, "send", func() string { return " " + cl.req.Label() })
	}
	_ = c.n.SendFrom(c.name, p.port, cl.data)
	cl.cancel = c.n.AfterNamed(p.awaitOwner, Timeout, func() { c.onTimeout(cl) })
}

// onTimeout handles an awaited reply that never arrived.
func (c *Caller[R]) onTimeout(cl *call[R]) {
	p := cl.p
	c.cfg.Timeouts.Inc()
	c.note(cl, "timeout", func() string { return fmt.Sprintf(" attempt %d", cl.attempts) })
	p.br.failure(c.n.Now())
	if cl.attempts >= c.cfg.MaxAttempts {
		delete(p.inflight, cl.seq)
		var none R
		cl.done(none, fmt.Errorf("%w: %s: %d attempts timed out", ErrUnreachable, p.name, cl.attempts))
		return
	}
	d := backoff(cl.attempts, c.rng)
	c.note(cl, "backoff", func() string { return fmt.Sprintf(": retry in %d ticks", d) })
	cl.cancel = c.n.AfterNamed(p.retryOwner, d, func() { c.send(cl) })
}

// Process implements netsim.Processor: inbound traffic is replies.
// Undecodable packets, replies for another session, and stale replies
// (a duplicate racing its retransmission's answer, or a call abandoned
// by CancelAll) are dropped — retransmission and dedup make that safe.
func (c *Caller[R]) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	rep, err := c.cfg.Decode(pkt)
	if err != nil {
		c.Event(nil, "drop", func() string { return "undecodable reply: " + err.Error() })
		return nil, nil
	}
	session, seq := rep.Channel()
	var p *peer[R]
	for _, q := range c.peers {
		if q.port == inPort && q.session == session {
			p = q
		}
	}
	if p == nil {
		c.Event(nil, "drop", func() string {
			return fmt.Sprintf("reply for unknown session %#x on port %d", session, inPort)
		})
		return nil, nil
	}
	cl := p.inflight[seq]
	if cl == nil {
		c.Event(nil, "stale", func() string { return fmt.Sprintf("%s seq %d (already resolved)", p.name, seq) })
		return nil, nil
	}
	p.br.success()
	event, rest := rep.Outcome()
	c.note(cl, event, func() string { return rest })
	cl.cancel()
	delete(p.inflight, seq)
	cl.done(rep, nil)
	return nil, nil
}

// Event publishes one trace event under the caller's kind and node name
// and mirrors it onto a non-nil span, extending the span to the current
// tick (safe on an already-recorded span: the run loop is the only
// writer). detail runs only when something will read the event.
func (c *Caller[R]) Event(span *trace.Span, name string, detail func() string) {
	bus := c.n.Bus()
	if span == nil && !bus.Active() {
		return
	}
	text := detail()
	bus.Publish(sim.TraceEvent{Kind: c.cfg.Kind, Module: c.name, Name: name, Detail: text})
	if span != nil {
		span.Event(c.n.Now(), name, text)
		span.End = c.n.Now()
	}
}

// note is Event for one call's lifecycle: "<peer> seq <n>" and rest().
func (c *Caller[R]) note(cl *call[R], name string, rest func() string) {
	c.Event(cl.span, name, func() string { return fmt.Sprintf("%s seq %d%s", cl.p.name, cl.seq, rest()) })
}
