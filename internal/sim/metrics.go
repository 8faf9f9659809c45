package sim

import (
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"microp4/internal/flow"
	"microp4/internal/obs"
)

// TableMetrics counts lookup outcomes of one table.
type TableMetrics struct {
	Hits     *obs.Counter // an installed or const entry matched
	Defaults *obs.Counter // no entry matched; the default action ran
	Misses   *obs.Counter // no entry matched and there was no default
}

// FlowMetrics mirrors one flowtable instance's statistics. All four
// are gauges set from the table's own cumulative counters after each
// flow operation — last-writer-wins, so the worker-pool shards share
// the parent's series (like Clock) and the exported values stay exact.
type FlowMetrics struct {
	Entries   *obs.Gauge // live entries (up4_flow_entries)
	Inserts   *obs.Gauge // cumulative dataplane learns (up4_flow_inserts)
	Evictions *obs.Gauge // cumulative capacity evictions (up4_flow_evictions)
	Expiries  *obs.Gauge // cumulative TTL expiries (up4_flow_expiries)
}

// PortMetrics counts traffic on one port.
type PortMetrics struct {
	RxPackets *obs.Counter
	RxBytes   *obs.Counter
	TxPackets *obs.Counter
	TxBytes   *obs.Counter
	Drops     *obs.Counter // packets received on this port that were dropped
}

// Metrics is the dataplane's observability state: per-port and
// per-table counters, error counters, and a per-packet latency
// histogram, all registered in an obs.Registry for exposition.
//
// Metrics is a reader of the per-packet record (record.go): the engines
// never touch it on the packet path, observe tallies a finished record
// into it. Per-table counters resolve through a copy-on-write slice
// indexed by the table's id in the record's name table and ports through
// a copy-on-write map — one atomic load plus an index or a map read, no
// locks, no allocation once the series exists.
type Metrics struct {
	reg *obs.Registry

	Packets       *obs.Counter // packets processed (either engine)
	Drops         *obs.Counter
	ParserErrors  *obs.Counter
	DeparseErrors *obs.Counter
	TableErrors   *obs.Counter // table/action/register state inconsistent with the program
	EngineFaults  *obs.Counter // internal engine faults, incl. recovered panics
	RecircDrops   *obs.Counter // packets that exceeded the recirculation budget
	Recircs       *obs.Counter
	Latency       *obs.Histogram // per-packet processing latency, ns
	Clock         *obs.Gauge     // the switch's virtual clock (last IN_TIMESTAMP)

	// SampleEvery controls latency-histogram sampling: every Nth packet
	// is timed (two time.Now calls around Process). The default of 1
	// times every packet — the histogram count then equals the packet
	// count, packets that ended in a typed error included. Raise it
	// (e.g. 256) to amortize the clock reads away on throughput-critical
	// deployments; counters are unaffected.
	SampleEvery atomic.Int64
	sampleSeq   atomic.Uint64

	// parent is non-nil on a shard view (see Shard): every counter and
	// histogram above is then an obs shard child of the parent's, and
	// SampleEvery is read from the parent.
	parent *Metrics
	shards atomic.Value // []*Metrics, parent only

	mu     sync.Mutex
	byName map[string]*TableMetrics    // every table series, guarded by mu
	tables atomic.Pointer[tableSeries] // byName as the packet path reads it
	ports  cow[uint64, *PortMetrics]
	flows  cow[string, *FlowMetrics]
}

// cow is a copy-on-write map for the packet path: all is one atomic load,
// put republishes a copy and needs its callers serialised. The zero
// value is empty.
type cow[K comparable, V any] struct{ p atomic.Pointer[map[K]V] }

func (c *cow[K, V]) all() map[K]V {
	if p := c.p.Load(); p != nil {
		return *p
	}
	return nil
}

// put publishes a copy with k set to v or, with drop, without k.
func (c *cow[K, V]) put(k K, v V, drop bool) {
	next := maps.Clone(c.all())
	if next == nil {
		next = make(map[K]V)
	}
	if drop {
		delete(next, k)
	} else {
		next[k] = v
	}
	c.p.Store(&next)
}

// tableSeries is the table counters by id for one name table — one
// generation of a switch; a cut-over to the next starts a new one over
// the same series.
type tableSeries struct {
	syms *symbols
	byID []*TableMetrics
}

// sampleLatency reports whether this packet's latency should be timed.
// Nil-safe: no metrics, no timing. Shards keep their own sampling
// sequence (uncontended) but read the period from the parent, so tuning
// SampleEvery on the switch reaches every worker.
func (m *Metrics) sampleLatency() bool {
	if m == nil {
		return false
	}
	se := &m.SampleEvery
	if m.parent != nil {
		se = &m.parent.SampleEvery
	}
	n := se.Load()
	if n <= 1 {
		return true
	}
	return m.sampleSeq.Add(1)%uint64(n) == 0
}

// NewMetrics returns dataplane metrics registered in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:           reg,
		Packets:       reg.Counter("up4_switch_packets_total", "Packets processed by the dataplane"),
		Drops:         reg.Counter("up4_switch_drops_total", "Packets dropped by the dataplane"),
		ParserErrors:  reg.Counter("up4_parser_errors_total", "Packets rejected by a parser"),
		DeparseErrors: reg.Counter("up4_deparse_errors_total", "Deparser failures"),
		TableErrors:   reg.Counter("up4_table_errors_total", "Table state inconsistent with the program"),
		EngineFaults:  reg.Counter("up4_engine_faults_total", "Engine faults, including recovered panics"),
		RecircDrops:   reg.Counter("up4_recirc_drops_total", "Packets dropped for exceeding the recirculation budget"),
		Recircs:       reg.Counter("up4_recirculations_total", "Packets sent through the recirculation path"),
		Latency:       reg.Histogram("up4_packet_latency_ns", "Per-packet processing latency in nanoseconds", obs.LatencyBucketsNs),
		Clock:         reg.Gauge("up4_switch_clock", "Virtual clock of the switch (packets seen)"),
	}
	m.SampleEvery.Store(1)
	m.byName = map[string]*TableMetrics{}
	m.tables.Store(new(tableSeries))
	return m
}

// Registry returns the backing registry (for exposition).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Shard returns worker i's telemetry shard: a Metrics view whose
// counters and histograms are uncontended per-worker children of this
// Metrics', folded back in at scrape time by the obs layer. Attach a
// shard to packet metadata (Metadata.M) and the engines count into it
// instead of the switch-wide series; aggregated values (registry
// expositions, Counter.Value) remain exact. Shards are cached — calling
// Shard(i) repeatedly returns the same view. The Clock gauge is shared
// with the parent (it is a last-writer-wins instant, not a sum).
func (m *Metrics) Shard(i int) *Metrics {
	if m == nil {
		return nil
	}
	if m.parent != nil {
		return m.parent.Shard(i)
	}
	if s, _ := m.shards.Load().([]*Metrics); i < len(s) {
		return s[i]
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s, _ := m.shards.Load().([]*Metrics)
	for len(s) <= i {
		s = append(s, m.newShard())
	}
	m.shards.Store(s)
	return s[i]
}

// newShard builds one per-worker view (caller holds m.mu).
func (m *Metrics) newShard() *Metrics {
	s := &Metrics{
		reg:           m.reg,
		parent:        m,
		Packets:       m.Packets.Shard(),
		Drops:         m.Drops.Shard(),
		ParserErrors:  m.ParserErrors.Shard(),
		DeparseErrors: m.DeparseErrors.Shard(),
		TableErrors:   m.TableErrors.Shard(),
		EngineFaults:  m.EngineFaults.Shard(),
		RecircDrops:   m.RecircDrops.Shard(),
		Recircs:       m.Recircs.Shard(),
		Latency:       m.Latency.Shard(),
		Clock:         m.Clock,
	}
	s.byName = map[string]*TableMetrics{}
	s.tables.Store(new(tableSeries))
	return s
}

// Table returns the counters of a fully qualified table, creating them
// on first use. On a shard view the counters are per-worker children of
// the parent's.
func (m *Metrics) Table(name string) *TableMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.byName[name]
	if t == nil {
		if m.parent != nil {
			pt := m.parent.Table(name)
			t = &TableMetrics{Hits: pt.Hits.Shard(), Defaults: pt.Defaults.Shard(), Misses: pt.Misses.Shard()}
		} else {
			l := obs.L("table", name)
			t = &TableMetrics{
				Hits:     m.reg.Counter("up4_table_hits_total", "Table lookups that matched an entry", l),
				Defaults: m.reg.Counter("up4_table_defaults_total", "Table lookups that ran the default action", l),
				Misses:   m.reg.Counter("up4_table_misses_total", "Table lookups with no match and no default", l),
			}
		}
		m.byName[name] = t
	}
	return t
}

// resolve returns the by-id view extended with table id of syms; a view
// of another name table is started over.
func (m *Metrics) resolve(syms *symbols, id int32) *tableSeries {
	names := *syms.names.Load()
	t := m.Table(names[id])
	m.mu.Lock()
	defer m.mu.Unlock()
	next := &tableSeries{syms: syms, byID: make([]*TableMetrics, len(names))}
	if old := m.tables.Load(); old.syms == syms {
		copy(next.byID, old.byID)
	}
	next.byID[id] = t
	m.tables.Store(next)
	return next
}

// Port returns the counters of a port, creating them on first use.
func (m *Metrics) Port(port uint64) *PortMetrics {
	if p := m.ports.all()[port]; p != nil {
		return p
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.ports.all()[port]; p != nil {
		return p
	}
	var p *PortMetrics
	if m.parent != nil {
		pp := m.parent.Port(port)
		p = &PortMetrics{
			RxPackets: pp.RxPackets.Shard(), RxBytes: pp.RxBytes.Shard(),
			TxPackets: pp.TxPackets.Shard(), TxBytes: pp.TxBytes.Shard(),
			Drops: pp.Drops.Shard(),
		}
	} else {
		l := obs.L("port", strconv.FormatUint(port, 10))
		p = &PortMetrics{
			RxPackets: m.reg.Counter("up4_port_rx_packets_total", "Packets received per port", l),
			RxBytes:   m.reg.Counter("up4_port_rx_bytes_total", "Bytes received per port", l),
			TxPackets: m.reg.Counter("up4_port_tx_packets_total", "Packets transmitted per port", l),
			TxBytes:   m.reg.Counter("up4_port_tx_bytes_total", "Bytes transmitted per port", l),
			Drops:     m.reg.Counter("up4_port_drops_total", "Packets received on this port that were dropped", l),
		}
	}
	m.ports.put(port, p, false)
	return p
}

// Flow returns the gauges of a fully qualified flowtable instance,
// creating them on first use. Shard views resolve to the parent's
// series — flow gauges carry cumulative values, so last-writer-wins
// sets are exact.
func (m *Metrics) Flow(name string) *FlowMetrics {
	if m.parent != nil {
		return m.parent.Flow(name)
	}
	if f := m.flows.all()[name]; f != nil {
		return f
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.flows.all()[name]; f != nil {
		return f
	}
	l := obs.L("table", name)
	f := &FlowMetrics{
		Entries:   m.reg.Gauge("up4_flow_entries", "Live flow-table entries", l),
		Inserts:   m.reg.Gauge("up4_flow_inserts", "Cumulative flow-table learns", l),
		Evictions: m.reg.Gauge("up4_flow_evictions", "Cumulative flow-table capacity evictions", l),
		Expiries:  m.reg.Gauge("up4_flow_expiries", "Cumulative flow-table TTL expiries", l),
	}
	m.flows.put(name, f, false)
	return f
}

// countFlow mirrors a flowtable's statistics into its gauges after a
// flow operation.
func (m *Metrics) countFlow(name string, t *flow.Table) {
	f := m.Flow(name)
	st := t.Stats()
	f.Entries.Set(int64(t.Len()))
	f.Inserts.Set(int64(st.Inserts))
	f.Evictions.Set(int64(st.Evictions))
	f.Expiries.Set(int64(st.Expiries))
}

// observe tallies one finished record: its table and flowtable steps,
// its error class, and the per-packet counts — the packet, its rx port
// and bytes and, when sampled, its latency, whether it ended in
// outputs, a drop or a typed error.
func (m *Metrics) observe(r *record, res *ProcResult, err error, elapsed time.Duration) {
	ts := m.tables.Load()
	for i := range r.steps {
		switch s := &r.steps[i]; s.kind {
		case stepTable:
			if ts.syms != r.syms || int(s.name) >= len(ts.byID) || ts.byID[s.name] == nil {
				ts = m.resolve(r.syms, s.name)
			}
			t := ts.byID[s.name]
			switch s.outcome {
			case LookupHit:
				t.Hits.Inc()
			case LookupDefault:
				t.Defaults.Inc()
			case LookupMiss:
				t.Misses.Inc()
			}
		case stepFlow:
			m.countFlow(r.names()[s.name], r.flows[s.aux])
		}
	}
	m.countError(err)
	m.countResult(r.inPort, r.pktLen, res)
	if r.sampled {
		m.Latency.Observe(uint64(elapsed))
	}
}

// countError classifies a typed runtime error into the error counters.
// Nil-safe on both receiver and error; untyped errors count as engine
// faults (the taxonomy invariant says there should be none).
func (m *Metrics) countError(err error) {
	if m == nil || err == nil {
		return
	}
	class, ok := ClassOf(err)
	if !ok {
		m.EngineFaults.Inc()
		return
	}
	switch class {
	case ClassParse:
		m.ParserErrors.Inc()
	case ClassDeparse:
		m.DeparseErrors.Inc()
	case ClassTable:
		m.TableErrors.Inc()
	case ClassEngine:
		m.EngineFaults.Inc()
	case ClassRecirc:
		m.RecircDrops.Inc()
	case ClassControl:
		// Control-plane rejects never reach the Process boundary; they
		// are counted by the ctrlplane metrics (up4_ctrl_rejects_total).
	}
}

// countResult records the per-packet tallies shared by both engines;
// res is nil for a packet that ended in an error.
func (m *Metrics) countResult(inPort uint64, pktLen int, res *ProcResult) {
	m.Packets.Inc()
	in := m.Port(inPort)
	in.RxPackets.Inc()
	in.RxBytes.Add(uint64(pktLen))
	if res == nil {
		return
	}
	if res.ParserReject {
		m.ParserErrors.Inc()
	}
	if res.Dropped {
		m.Drops.Inc()
		in.Drops.Inc()
		return
	}
	if res.Recirculate {
		m.Recircs.Inc()
	}
	for _, o := range res.Out {
		out := m.Port(o.Port)
		out.TxPackets.Inc()
		out.TxBytes.Add(uint64(len(o.Data)))
	}
}
