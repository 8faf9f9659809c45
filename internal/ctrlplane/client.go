package ctrlplane

import (
	"errors"
	"fmt"
	"math/rand"

	"microp4"
	"microp4/internal/netsim"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

// ErrUnreachable wraps a give-up: every attempt at a request timed out
// (match with errors.Is).
var ErrUnreachable = errors.New("ctrlplane: peer unreachable")

// Config tunes the controller client. Zero fields take the defaults.
type Config struct {
	// Seed drives the retry-jitter stream and session-id derivation.
	// The client shares the network's virtual clock, so identical seed
	// (and network) means an identical retry schedule, tick for tick.
	Seed uint64
	// Timeout is how long, in virtual ticks, to await a reply before
	// retrying (default 64).
	Timeout uint64
	// MaxAttempts bounds the sends per request, first try included
	// (default 8); exhausted attempts surface ErrUnreachable.
	MaxAttempts int
	Backoff     BackoffConfig
	Breaker     BreakerConfig
	// Metrics counts retries, timeouts, and transaction outcomes
	// (optional; share one registry with the agents).
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	c.Backoff = c.Backoff.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	if c.Metrics == nil {
		c.Metrics = &Metrics{} // counts nothing
	}
	return c
}

// Client is the controller side of the control protocol: a
// netsim.Processor node whose requests ride the simulated network's
// lossy links. Every request is retried on timeout with capped
// exponential backoff (seeded jitter, virtual clock — deterministic
// per seed), deduplicated at the agent, and gated by a per-channel
// circuit breaker. Do issues one op; Transaction runs a multi-switch
// atomic batch over two-phase commit.
//
// The client is single-threaded with the network's run loop: create
// it, wire its ports, enqueue work with Do/Transaction, then drive
// everything — sends, replies, timeouts, retries — by running the
// network. Callbacks fire inside Run.
type Client struct {
	n       *netsim.Network
	name    string
	cfg     Config
	rng     *rand.Rand
	peers   map[string]*peer
	byPort  map[uint64]*peer
	order   []string // peer names in AddPeer order (deterministic iteration)
	nextTxn uint64

	tracer  *trace.Recorder
	curSpan *trace.Span // the txn phase span issuing the current sends
}

// SetTracing attaches (or, with nil, detaches) a distributed-tracing
// flight recorder: every transaction records a root "txn" span plus one
// child span per 2PC phase (stage, prepare, commit, abort), with the
// per-peer sends, retries, timeouts, backoffs, and breaker holds each
// phase incurred attached as events on the phase that issued them.
// Attach the same recorder the network and switches use so control-
// plane spans land in the same flight-recorder ring as packet spans.
func (c *Client) SetTracing(rec *trace.Recorder) { c.tracer = rec }

// peer is one control channel to one switch agent.
type peer struct {
	name     string
	port     uint64 // the client's local port wired to this peer
	session  uint64
	nextSeq  uint64
	inflight map[uint64]*call
	br       *breaker
}

// call is one request's lifecycle: send → (reply | timeout → backoff →
// resend)* → done.
type call struct {
	p        *peer
	op       *CtrlOp
	data     []byte
	attempts int
	cancel   func() // pending timeout or backoff timer
	resolved bool
	done     func(*CtrlReply, error)
	span     *trace.Span // txn phase span this call reports to (may be nil)
}

// callEvent publishes a call-lifecycle event to the trace bus and, when
// the call belongs to a traced transaction phase, attaches it to that
// phase's span (extending the span to the current tick). The client is
// single-threaded with the network run loop, so mutating an
// already-recorded span is safe.
func (c *Client) callEvent(cl *call, name, detail string) {
	c.event(name, detail)
	if cl.span != nil {
		cl.span.Event(c.n.Now(), name, detail)
		cl.span.End = c.n.Now()
	}
}

// NewClient creates a controller node named name in the network.
func NewClient(n *netsim.Network, name string, cfg Config) (*Client, error) {
	c := &Client{
		n:      n,
		name:   name,
		cfg:    cfg.withDefaults(),
		peers:  make(map[string]*peer),
		byPort: make(map[uint64]*peer),
	}
	c.rng = rand.New(rand.NewSource(int64(mix(c.cfg.Seed ^ 0xC0117E01))))
	if err := n.AddSwitch(name, c); err != nil {
		return nil, err
	}
	return c, nil
}

// AddPeer declares a control channel: requests to peerName leave the
// client on localPort (Connect that port to the agent's control port).
// The channel's session id derives from the client seed and the peer
// name, so sessions are stable per seed.
func (c *Client) AddPeer(peerName string, localPort uint64) error {
	if _, dup := c.peers[peerName]; dup {
		return fmt.Errorf("ctrlplane: duplicate peer %q", peerName)
	}
	if c.byPort[localPort] != nil {
		return fmt.Errorf("ctrlplane: port %d already carries peer %q", localPort, c.byPort[localPort].name)
	}
	p := &peer{
		name:     peerName,
		port:     localPort,
		session:  mix(c.cfg.Seed^hashName(peerName)) | 1, // nonzero
		nextSeq:  1,
		inflight: make(map[uint64]*call),
		br:       newBreaker(c.cfg.Breaker, c.cfg.Metrics.BreakerGauge(peerName)),
	}
	c.peers[peerName] = p
	c.byPort[localPort] = p
	c.order = append(c.order, peerName)
	return nil
}

// Peers returns the peer names in AddPeer order.
func (c *Client) Peers() []string { return append([]string(nil), c.order...) }

// Do issues one op to a peer. The op's Session and Seq are assigned
// here; done fires during the network run with the reply (which may be
// a rejection — deterministic, do not retry) or an ErrUnreachable
// after MaxAttempts timeouts. A nil done fires and forgets.
func (c *Client) Do(peerName string, op CtrlOp, done func(*CtrlReply, error)) error {
	p := c.peers[peerName]
	if p == nil {
		return fmt.Errorf("ctrlplane: unknown peer %q", peerName)
	}
	if done == nil {
		done = func(*CtrlReply, error) {}
	}
	op.Session = p.session
	op.Seq = p.nextSeq
	p.nextSeq++
	cl := &call{p: p, op: &op, data: EncodeCtrlOp(&op), done: done, span: c.curSpan}
	p.inflight[op.Seq] = cl
	c.send(cl)
	return nil
}

// send transmits (or, when the breaker is open, defers) one attempt.
func (c *Client) send(cl *call) {
	if cl.resolved {
		return
	}
	now := c.n.Now()
	if !cl.p.br.allow(now) {
		// Channel is broken: hold the request until the breaker's
		// half-open probe time instead of burning an attempt on it.
		at := cl.p.br.retryAt()
		d := uint64(1)
		if at > now {
			d = at - now
		}
		c.callEvent(cl, "breaker-hold", fmt.Sprintf("%s seq %d: %s until t+%d", cl.p.name, cl.op.Seq, cl.p.br.state, d))
		cl.cancel = c.n.After(d, func() { c.send(cl) })
		return
	}
	cl.attempts++
	if cl.attempts > 1 {
		c.cfg.Metrics.Retries.Inc()
		c.callEvent(cl, "retry", fmt.Sprintf("%s seq %d attempt %d", cl.p.name, cl.op.Seq, cl.attempts))
	} else {
		c.callEvent(cl, "send", fmt.Sprintf("%s seq %d %s %s", cl.p.name, cl.op.Seq, cl.op.Kind, cl.op.Table))
	}
	_ = c.n.SendFrom(c.name, cl.p.port, cl.data)
	cl.cancel = c.n.After(c.cfg.Timeout, func() { c.onTimeout(cl) })
}

// onTimeout handles an awaited reply that never arrived.
func (c *Client) onTimeout(cl *call) {
	if cl.resolved {
		return
	}
	c.cfg.Metrics.Timeouts.Inc()
	c.callEvent(cl, "timeout", fmt.Sprintf("%s seq %d attempt %d", cl.p.name, cl.op.Seq, cl.attempts))
	now := c.n.Now()
	cl.p.br.failure(now)
	if cl.attempts >= c.cfg.MaxAttempts {
		c.resolve(cl, nil, fmt.Errorf("%w: %s: %d attempts timed out",
			ErrUnreachable, cl.p.name, cl.attempts))
		return
	}
	d := c.cfg.Backoff.delay(cl.attempts, c.rng)
	c.callEvent(cl, "backoff", fmt.Sprintf("%s seq %d: retry in %d ticks", cl.p.name, cl.op.Seq, d))
	cl.cancel = c.n.After(d, func() { c.send(cl) })
}

func (c *Client) resolve(cl *call, rep *CtrlReply, err error) {
	if cl.resolved {
		return
	}
	cl.resolved = true
	if cl.cancel != nil {
		cl.cancel()
		cl.cancel = nil
	}
	delete(cl.p.inflight, cl.op.Seq)
	cl.done(rep, err)
}

// Process implements netsim.Processor: the client's inbound traffic is
// replies from agents. Undecodable packets (corruption en route) and
// stale replies (a duplicate racing its retransmission's answer) are
// dropped — retransmission and dedup make that safe.
func (c *Client) Process(pkt []byte, inPort uint64) ([]microp4.Output, error) {
	rep, err := DecodeCtrlReply(pkt)
	if err != nil {
		c.event("drop", "undecodable reply: "+err.Error())
		return nil, nil
	}
	p := c.byPort[inPort]
	if p == nil || rep.Session != p.session {
		c.event("drop", fmt.Sprintf("reply for unknown session %#x on port %d", rep.Session, inPort))
		return nil, nil
	}
	cl := p.inflight[rep.Seq]
	if cl == nil {
		c.event("stale", fmt.Sprintf("%s seq %d (already resolved)", p.name, rep.Seq))
		return nil, nil
	}
	p.br.success()
	if rep.Status == StatusRejected {
		c.callEvent(cl, "rejected", fmt.Sprintf("%s seq %d: %s: %s", p.name, rep.Seq, rep.Class, rep.Reason))
	} else {
		c.callEvent(cl, "reply", fmt.Sprintf("%s seq %d ok", p.name, rep.Seq))
	}
	c.resolve(cl, rep, nil)
	return nil, nil
}

func (c *Client) event(name, detail string) {
	if bus := c.n.Bus(); bus.Active() {
		bus.Publish(sim.TraceEvent{Kind: "ctrl", Module: c.name, Name: name, Detail: detail})
	}
}

// Op constructors for building requests and transaction plans.

// AddEntry builds an entry-install op.
func AddEntry(table string, keys []CtrlKey, action string, args ...uint64) CtrlOp {
	return CtrlOp{Kind: OpAddEntry, Table: table, Keys: keys, Action: action, Args: args}
}

// SetDefault builds a default-action override op.
func SetDefault(table, action string, args ...uint64) CtrlOp {
	return CtrlOp{Kind: OpSetDefault, Table: table, Action: action, Args: args}
}

// ClearTable builds a table-clear op.
func ClearTable(table string) CtrlOp { return CtrlOp{Kind: OpClearTable, Table: table} }

// SetMulticast builds a multicast-group programming op.
func SetMulticast(gid uint64, ports ...uint64) CtrlOp {
	return CtrlOp{Kind: OpSetMulticast, Group: gid, Ports: ports}
}

// mix is splitmix64, the seed-mixing finalizer.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
