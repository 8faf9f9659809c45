package ctrlplane

import (
	"microp4/internal/netsim"
	"microp4/internal/trace"
	"microp4/internal/wire"
)

// ErrUnreachable wraps a give-up: every attempt at a request timed out
// (match with errors.Is).
var ErrUnreachable = wire.ErrUnreachable

// Config wires the controller client. Reply timeout, retry backoff and
// circuit breaker are the messaging substrate's one policy (internal/wire).
type Config struct {
	// Seed drives the retry-jitter stream and session-id derivation.
	// The client shares the network's virtual clock, so identical seed
	// (and network) means an identical retry schedule, tick for tick.
	Seed uint64
	// MaxAttempts bounds the sends per request, first try included
	// (default 8); exhausted attempts surface ErrUnreachable.
	MaxAttempts int
	// Metrics counts retries, timeouts, and transaction outcomes
	// (optional; share one registry with the agents).
	Metrics *Metrics
}

// Client is the controller side of the control protocol: a netsim node
// whose requests ride the simulated network's lossy links. Every
// request is retried on timeout with capped exponential backoff (seeded
// jitter, virtual clock — deterministic per seed), deduplicated at the
// agent, and gated by a per-channel circuit breaker. Do issues one op; Transaction runs a multi-switch
// atomic batch over two-phase commit.
//
// The client is single-threaded with the network's run loop: create
// it, wire its ports, enqueue work with Do/Transaction, then drive
// everything — sends, replies, timeouts, retries — by running the
// network. Callbacks fire inside Run.
type Client struct {
	n       *netsim.Network
	name    string
	metrics *Metrics
	calls   *wire.Caller[*CtrlReply]
	nextTxn uint64
	tracer  *trace.Recorder
}

// SetTracing attaches (or, with nil, detaches) a distributed-tracing
// flight recorder: every transaction records a root "txn" span plus one
// child span per 2PC phase (stage, prepare, commit, abort), with the
// per-peer sends, retries, timeouts, backoffs, and breaker holds each
// phase incurred attached as events on the phase that issued them.
// Attach the same recorder the network and switches use so control-
// plane spans land in the same flight-recorder ring as packet spans.
func (c *Client) SetTracing(rec *trace.Recorder) { c.tracer = rec }

// NewClient creates a controller node named name in the network.
func NewClient(n *netsim.Network, name string, cfg Config) (*Client, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{} // counts nothing
	}
	calls, err := wire.NewCaller(n, name, wire.CallerConfig[*CtrlReply]{
		Kind: "ctrl", Seed: cfg.Seed, MaxAttempts: cfg.MaxAttempts, Decode: DecodeCtrlReply,
		Retries: cfg.Metrics.Retries, Timeouts: cfg.Metrics.Timeouts,
		BreakerGauge: cfg.Metrics.BreakerGauge,
	})
	if err != nil {
		return nil, err
	}
	return &Client{n: n, name: name, metrics: cfg.Metrics, calls: calls}, nil
}

// AddPeer declares a control channel: requests to peerName leave the
// client on localPort (Connect that port to the agent's control port).
// The channel's session id derives from the client seed and the peer
// name, so sessions are stable per seed.
func (c *Client) AddPeer(peerName string, localPort uint64) error {
	return c.calls.AddPeer(peerName, localPort)
}

// Peers returns the peer names in AddPeer order.
func (c *Client) Peers() []string { return c.calls.Peers() }

// Do issues one op to a peer. The op's Session and Seq are assigned
// here; done fires during the network run with the reply (which may be
// a rejection — deterministic, do not retry) or an ErrUnreachable
// after MaxAttempts timeouts. A nil done fires and forgets.
func (c *Client) Do(peerName string, op CtrlOp, done func(*CtrlReply, error)) error {
	if done == nil {
		done = func(*CtrlReply, error) {}
	}
	return c.calls.Call(peerName, &op, nil, done)
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
