// Package netsim is the chaos-grade simulated network: a Network of
// named switches joined by Links, each link carrying a deterministic,
// seed-driven fault model (drop, duplicate, reorder, bit-flip,
// truncate, link down) and optional control-plane churn racing the
// traffic. It promotes the hand-wired topologies of the early tests
// into a first-class subsystem the µP4 paper's composition claims can
// be stress-checked against: one malformed or hostile packet exercises
// every linked module at once, and the runtime must degrade gracefully
// — typed errors, counted faults, never a panic.
//
// Determinism contract: for a fixed network seed, topology, and
// injected traffic, Run produces an identical fault event sequence and
// identical final counters on every run. Each link draws from its own
// splitmix-derived stream, so adding a link never perturbs the others.
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"microp4"
	"microp4/internal/obs"
	"microp4/internal/sim"
	"microp4/internal/trace"
)

// Processor is the node abstraction: anything that turns a received
// packet into output packets. *microp4.Switch implements it.
type Processor interface {
	Process(pkt []byte, inPort uint64) ([]microp4.Output, error)
}

// HopProcessor is the traced node abstraction: a Processor that accepts
// a distributed-tracing context for the hop and returns the recorded
// hop span's id (so the network can parent link spans under it).
// *microp4.Switch implements it. Nodes that don't (e.g. the ctrlplane
// client) process untraced.
type HopProcessor interface {
	ProcessHop(pkt []byte, inPort uint64, hc trace.HopContext) ([]microp4.Output, uint64, error)
}

// endpoint is one attachment point: a node's port.
type endpoint struct {
	node string
	port uint64
}

func (e endpoint) String() string { return fmt.Sprintf("%s:%d", e.node, e.port) }

// Node is one switch in the network.
type Node struct {
	name  string
	proc  Processor
	churn []*Churn
}

// Link is one directed edge with its own fault stream. Connect creates
// a pair (one per direction), each with an independent stream.
type Link struct {
	name      string
	from, to  endpoint
	model     FaultModel
	rng       *rand.Rand
	down      bool
	partUntil uint64   // end tick of an open partition window
	held      *linkPkt // a reorder-held packet, trace context included
}

// Name returns the link's "from->to" name, the key fault events carry.
func (l *Link) Name() string { return l.name }

// Delivery is a packet that left the network on an unconnected port.
// Trace is the id of the distributed trace the packet belonged to and
// Span the id of the hop span that emitted it (both 0 when tracing was
// off or the packet was never given a context) — the join keys between
// an egressed packet's in-band telemetry and its host-side spans.
// Walking Span's ParentID chain recovers this exact copy's hop
// sequence even when link faults duplicated the packet mid-path.
type Delivery struct {
	Node  string
	Port  uint64
	Data  []byte
	Trace uint64
	Span  uint64
}

// RunStats summarizes one Run. All counts are deterministic for a
// fixed seed, topology, and traffic.
type RunStats struct {
	Steps      int // deliveries consumed (packets processed by nodes)
	Injected   int
	Egressed   int // packets that left on unconnected ports
	NodeDrops  int // Process calls that produced no output
	ProcErrors int // typed errors returned by Process (packet lost, run continues)
	Faults     map[FaultKind]int
}

// Network is a simulated topology under test.
type Network struct {
	seed  uint64
	nodes map[string]*Node
	order []string           // node names in AddSwitch order (deterministic iteration)
	links map[endpoint]*Link // keyed by transmitting endpoint
	lseq  []*Link            // links in Connect order
	queue []delivery         // in-flight packets, FIFO
	eg    map[string][]Delivery

	now      uint64 // virtual clock, in ticks (see clock.go)
	tseq     uint64 // timer creation sequence
	timers   timerQueue
	watchdog int // idle-timer-fire limit; 0 = DefaultWatchdogFires, <0 = off

	seq    uint64 // fault event sequence
	sinks  []func(FaultEvent)
	bus    *sim.Bus // fault events mirrored as trace events
	tracer *trace.Recorder
	reg    *obs.Registry
	faultC map[string]*obs.Counter // per (link, kind)
	delivC map[string]*obs.Counter // per link
	errC   map[string]*obs.Counter // per (node, class)
	stats  RunStats
}

// New returns an empty network whose fault and churn streams derive
// from seed.
func New(seed uint64) *Network {
	return &Network{
		seed:  seed,
		nodes: make(map[string]*Node),
		links: make(map[endpoint]*Link),
		eg:    make(map[string][]Delivery),
		bus:   sim.NewBus(),
		stats: RunStats{Faults: make(map[FaultKind]int)},
	}
}

// AddSwitch registers a named node. Names must be unique.
func (n *Network) AddSwitch(name string, p Processor) error {
	if name == "" || p == nil {
		return fmt.Errorf("netsim: switch needs a name and a processor")
	}
	if _, dup := n.nodes[name]; dup {
		return fmt.Errorf("netsim: duplicate switch %q", name)
	}
	n.nodes[name] = &Node{name: name, proc: p}
	n.order = append(n.order, name)
	return nil
}

// Connect joins a:aPort and b:bPort with a duplex link: two directed
// edges sharing the fault model but drawing from independent streams.
// A transmitting endpoint can carry at most one link.
func (n *Network) Connect(a string, aPort uint64, b string, bPort uint64, m FaultModel) error {
	if _, err := n.connectDirected(endpoint{a, aPort}, endpoint{b, bPort}, m); err != nil {
		return err
	}
	_, err := n.connectDirected(endpoint{b, bPort}, endpoint{a, aPort}, m)
	return err
}

func (n *Network) connectDirected(from, to endpoint, m FaultModel) (*Link, error) {
	if n.nodes[from.node] == nil || n.nodes[to.node] == nil {
		return nil, fmt.Errorf("netsim: link %v->%v references unknown switch", from, to)
	}
	if n.links[from] != nil {
		return nil, fmt.Errorf("netsim: endpoint %v already linked", from)
	}
	name := from.String() + "->" + to.String()
	l := &Link{
		name: name, from: from, to: to, model: m,
		rng: rand.New(rand.NewSource(linkSeed(n.seed, name))),
	}
	n.links[from] = l
	n.lseq = append(n.lseq, l)
	return l, nil
}

// SetLinkDown marks the directed link transmitting from node:port (and
// its reverse, when present) administratively down or up. Packets sent
// over a down link are lost with a FaultLinkDown event.
func (n *Network) SetLinkDown(node string, port uint64, down bool) error {
	l := n.links[endpoint{node, port}]
	if l == nil {
		return fmt.Errorf("netsim: no link at %s:%d", node, port)
	}
	l.down = down
	if rev := n.links[l.to]; rev != nil && rev.to == l.from {
		rev.down = down
	}
	return nil
}

// AddChurn attaches a deterministic control-plane churn injector to a
// node: before each packet the node processes, the injector performs
// opsPerPacket random control-plane operations (AddEntry, SetDefault,
// ClearTable, SetMulticastGroup) drawn from its own seed stream. The
// node's processor must also implement ChurnTarget (as
// *microp4.Switch does); if EnableMetrics was called first, rejections
// are counted in up4_churn_rejects_total{node}.
func (n *Network) AddChurn(node string, cfg ChurnConfig, opsPerPacket int) error {
	nd := n.nodes[node]
	if nd == nil {
		return fmt.Errorf("netsim: unknown switch %q", node)
	}
	target, ok := nd.proc.(ChurnTarget)
	if !ok {
		return fmt.Errorf("netsim: switch %q does not accept control-plane churn", node)
	}
	c := NewChurn(splitmix64(n.seed^uint64(len(nd.churn)+1)^hashString(node)), target, cfg)
	c.ops = opsPerPacket
	if n.reg != nil {
		c.CountRejects(n.reg.Counter("up4_churn_rejects_total",
			"Churn operations rejected by the validated control API", obs.L("node", node)))
	}
	nd.churn = append(nd.churn, c)
	return nil
}

// OnFault attaches a fault event sink and returns its detach function.
// Sinks run synchronously inside Run, in attach order.
func (n *Network) OnFault(fn func(FaultEvent)) (cancel func()) {
	n.sinks = append(n.sinks, fn)
	i := len(n.sinks) - 1
	return func() { n.sinks[i] = nil }
}

// Bus returns the network's trace bus: every fault event is mirrored
// onto it as a sim.TraceEvent{Kind: "fault"}, so chaos runs surface in
// the same stream as parser/table traces.
func (n *Network) Bus() *sim.Bus { return n.bus }

// SetTracing attaches (or, with nil, detaches) a distributed-tracing
// flight recorder to the network. With a recorder attached, every
// injected packet starts a trace whose context rides its deliveries
// end-to-end: nodes implementing HopProcessor record one hop span per
// packet processed (with the packet's deterministic queue depth — the
// ticks it waited in flight — surfaced as the QUEUE_DEPTH intrinsic),
// and every link traversal records a link span carrying the fault
// events injected on it. Attach the SAME recorder to the member
// switches (Switch.SetTracing) so hop and link spans land in one ring.
func (n *Network) SetTracing(rec *trace.Recorder) { n.tracer = rec }

// Tracing returns the recorder attached by SetTracing, or nil.
func (n *Network) Tracing() *trace.Recorder { return n.tracer }

// EnableMetrics attaches an obs registry counting per-link deliveries
// and faults and per-node processing errors. Idempotent.
func (n *Network) EnableMetrics() *obs.Registry {
	if n.reg == nil {
		n.reg = obs.NewRegistry()
		n.faultC = make(map[string]*obs.Counter)
		n.delivC = make(map[string]*obs.Counter)
		n.errC = make(map[string]*obs.Counter)
	}
	return n.reg
}

// Metrics returns the registry attached by EnableMetrics, or nil.
func (n *Network) Metrics() *obs.Registry { return n.reg }

// emit publishes one fault event everywhere it is observable: the
// attached sinks, the trace bus, the obs counters, and the run stats.
func (n *Network) emit(link string, kind FaultKind, detail string) {
	n.seq++
	e := FaultEvent{Seq: n.seq, Link: link, Kind: kind, Detail: detail}
	for _, fn := range n.sinks {
		if fn != nil {
			fn(e)
		}
	}
	if n.bus.Active() {
		n.bus.Publish(sim.TraceEvent{Kind: "fault", Name: link, Detail: string(kind) + " " + detail})
	}
	n.stats.Faults[kind]++
	if n.reg != nil {
		key := link + "\x00" + string(kind)
		c := n.faultC[key]
		if c == nil {
			c = n.reg.Counter("up4_link_faults_total", "Faults injected per link and kind",
				obs.L("link", link), obs.L("kind", string(kind)))
			n.faultC[key] = c
		}
		c.Inc()
	}
}

// delivery is one in-flight packet with its trace context: the trace
// it belongs to (0 = untraced), the span it descends from, and the tick
// it was sent.
type delivery struct {
	to     endpoint
	data   []byte
	tid    uint64
	parent uint64
	sentAt uint64
}

// Inject enqueues a packet arriving from outside the network at
// node:port. Delivery happens on the next Run. With tracing attached,
// each injected packet roots a fresh trace.
func (n *Network) Inject(node string, port uint64, data []byte) error {
	if n.nodes[node] == nil {
		return fmt.Errorf("netsim: unknown switch %q", node)
	}
	n.queue = append(n.queue, delivery{
		to:     endpoint{node, port},
		data:   append([]byte(nil), data...),
		tid:    n.tracer.NextID(), // 0 when tracing is off
		sentAt: n.now,
	})
	n.stats.Injected++
	return nil
}

// DefaultStepBudget bounds Run when maxSteps <= 0: generous enough for
// any sane topology, small enough that a pathological forwarding loop
// terminates the run instead of spinning forever.
const DefaultStepBudget = 1 << 20

// DefaultWatchdogFires is how many consecutive fruitless timer fires —
// no packet entered the queue, nothing egressed — Run tolerates before
// declaring the node set permanently parked. Healthy quiesce patterns
// (retry ladders against a dead peer, canary-timeout polls) burn at
// most dozens of fruitless fires before parking or giving up; a poller
// that re-arms forever without ever quiescing burns them linearly and
// is exactly the silent spin the watchdog converts into a diagnostic.
const DefaultWatchdogFires = 10000

// SetWatchdog overrides the run watchdog's tolerance for consecutive
// fruitless timer fires: 0 restores DefaultWatchdogFires, negative
// disables the watchdog entirely.
func (n *Network) SetWatchdog(fires int) { n.watchdog = fires }

func (n *Network) watchdogLimit() int {
	if n.watchdog != 0 {
		return n.watchdog
	}
	return DefaultWatchdogFires
}

// Run drains the delivery queue: each step pops one in-flight packet
// (advancing the virtual clock one tick), runs any churn injectors on
// the destination node, processes the packet, and transmits the outputs
// over their links (applying faults) or collects them as egress when
// the port has no link. When the queue is empty it releases
// reorder-held packets, then fires pending virtual-time timers (which
// may send more packets — the ctrlplane's retransmissions); it returns
// when the network is truly quiet or the step budget is exhausted.
//
// Typed processing errors do not abort the run — the packet is lost,
// the error is counted (per node and class when metrics are enabled),
// and chaos continues; that is the degradation the subsystem exists to
// exercise. Run only returns an error on a step-budget overrun.
func (n *Network) Run(maxSteps int) (RunStats, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultStepBudget
	}
	steps := 0
	idleFires := 0 // consecutive timer fires that moved no packet
	for {
		for len(n.queue) > 0 {
			if steps >= maxSteps {
				return n.stats, fmt.Errorf("netsim: step budget %d exhausted with %d packets in flight (forwarding loop?)", maxSteps, len(n.queue))
			}
			steps++
			n.stats.Steps++
			n.now++
			d := n.queue[0]
			n.queue = n.queue[1:]
			node := n.nodes[d.to.node]
			for _, c := range node.churn {
				c.StepN(c.ops)
			}
			var outs []microp4.Output
			var err error
			hopSpan := uint64(0)
			if hp, ok := node.proc.(HopProcessor); ok && n.tracer != nil && d.tid != 0 {
				// Queue depth: ticks the packet waited in flight beyond the
				// minimum one-tick hop — a pure function of the seed.
				var q uint64
				if n.now > d.sentAt {
					q = n.now - d.sentAt - 1
				}
				outs, hopSpan, err = hp.ProcessHop(d.data, d.to.port, trace.HopContext{
					TraceID: d.tid, ParentID: d.parent, Node: node.name, Tick: n.now, Qdepth: q,
				})
			} else {
				outs, err = node.proc.Process(d.data, d.to.port)
			}
			if err != nil {
				n.stats.ProcErrors++
				n.countProcError(node.name, err)
				n.emit(d.to.String(), FaultProcError, errClass(err))
				continue
			}
			if len(outs) == 0 {
				n.stats.NodeDrops++
				continue
			}
			for _, o := range outs {
				n.transmit(endpoint{node.name, o.Port}, o.Data, d.tid, hopSpan)
			}
		}
		// Drain reorder-held packets so a quiet network leaves nothing
		// in limbo; deterministic order (links in Connect order). A
		// release re-fills the queue, so loop until truly quiet.
		released := false
		for _, l := range n.lseq {
			if l.held != nil {
				pk := *l.held
				l.held = nil
				n.emit(l.name, FaultReorder, fmt.Sprintf("released %dB at drain", len(pk.data)))
				n.deliver(l, pk)
				released = true
			}
		}
		if released {
			continue
		}
		// Quiet network: advance virtual time to the next timer. Timer
		// callbacks count against the step budget too — a timer that
		// perpetually reschedules itself must not hang Run. The watchdog
		// tracks whether firing timers still moves packets: a long streak
		// of fires that neither enqueued nor egressed anything while more
		// timers stay pending means some node set re-arms forever without
		// quiescing, and Run fails with the owners instead of silently
		// spinning to the step budget.
		if steps < maxSteps {
			egBefore := n.stats.Egressed
			if n.fireTimer() {
				steps++
				if len(n.queue) > 0 || n.stats.Egressed != egBefore {
					idleFires = 0
				} else if limit := n.watchdogLimit(); limit > 0 {
					idleFires++
					if idleFires >= limit && n.timers.Len() > 0 {
						return n.stats, fmt.Errorf(
							"netsim: watchdog: %d consecutive timer fires moved no packets with %d timers still pending — parked node set (timer owners: %s)",
							idleFires, n.timers.Len(), strings.Join(n.pendingTimerOwners(), ", "))
					}
				}
				continue
			}
		}
		if n.timers.Len() > 0 && steps >= maxSteps {
			return n.stats, fmt.Errorf("netsim: step budget %d exhausted with timers pending", maxSteps)
		}
		return n.stats, nil
	}
}

// SendFrom transmits a packet out of node:port mid-run, exactly as if
// the node's Process had emitted it: over the endpoint's link with
// faults applied, or to the egress collector when unconnected. It is
// how non-packet-triggered senders — the ctrlplane client's initial
// sends and retransmission timers — originate traffic. Single-threaded
// with Run: call it only from inside Process, a timer callback, or
// before/after Run.
func (n *Network) SendFrom(node string, port uint64, data []byte) error {
	if n.nodes[node] == nil {
		return fmt.Errorf("netsim: unknown switch %q", node)
	}
	n.transmit(endpoint{node, port}, append([]byte(nil), data...), 0, 0)
	return nil
}

// transmit sends one packet out of an endpoint: over its link with
// faults applied, or to the egress collector when unconnected. With
// tracing on and a trace context attached (tid != 0), the traversal
// records one link span parented under the transmitting hop span,
// carrying the fault events injected on it; deliveries descend from the
// link span, and a transmission whose packet never made it out (drop,
// link down) is marked lost.
func (n *Network) transmit(from endpoint, data []byte, tid, parent uint64) {
	l := n.links[from]
	if l == nil {
		n.eg[from.node] = append(n.eg[from.node],
			Delivery{Node: from.node, Port: from.port, Data: data, Trace: tid, Span: parent})
		n.stats.Egressed++
		return
	}
	emit := func(k FaultKind, detail string) { n.emit(l.name, k, detail) }
	var sp *trace.Span
	if n.tracer != nil && tid != 0 {
		sp = &trace.Span{
			TraceID: tid, SpanID: n.tracer.NextID(), ParentID: parent,
			Kind: "link", Name: l.name, Start: n.now, End: n.now,
		}
		base := emit
		emit = func(k FaultKind, detail string) {
			sp.Event(n.now, string(k), detail)
			if k == FaultDrop || k == FaultLinkDown {
				sp.Err = "lost"
			}
			base(k, detail)
		}
		parent = sp.SpanID
	}
	pk := linkPkt{data: data, tid: tid, parent: parent, sentAt: n.now}
	for _, out := range l.applyFaults(pk, emit) {
		n.deliver(l, out)
	}
	if sp != nil {
		n.tracer.Record(sp)
	}
}

func (n *Network) deliver(l *Link, pk linkPkt) {
	n.queue = append(n.queue, delivery{
		to: l.to, data: pk.data, tid: pk.tid, parent: pk.parent, sentAt: pk.sentAt,
	})
	if n.reg != nil {
		c := n.delivC[l.name]
		if c == nil {
			c = n.reg.Counter("up4_link_deliveries_total", "Packets delivered per link", obs.L("link", l.name))
			n.delivC[l.name] = c
		}
		c.Inc()
	}
}

func (n *Network) countProcError(node string, err error) {
	if n.reg == nil {
		return
	}
	key := node + "\x00" + errClass(err)
	c := n.errC[key]
	if c == nil {
		c = n.reg.Counter("up4_node_proc_errors_total", "Typed processing errors per node and class",
			obs.L("node", node), obs.L("class", errClass(err)))
		n.errC[key] = c
	}
	c.Inc()
}

func errClass(err error) string {
	if class, ok := sim.ClassOf(err); ok {
		return class.String()
	}
	return "untyped"
}

// Egress returns the packets that left the network at a node's
// unconnected ports, in emission order.
func (n *Network) Egress(node string) []Delivery { return n.eg[node] }

// EgressAll returns every egressed packet grouped by node name, with
// nodes sorted for deterministic reporting.
func (n *Network) EgressAll() []Delivery {
	names := make([]string, 0, len(n.eg))
	for name := range n.eg {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Delivery
	for _, name := range names {
		out = append(out, n.eg[name]...)
	}
	return out
}

// Stats returns the running totals (also returned by Run).
func (n *Network) Stats() RunStats { return n.stats }

func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
