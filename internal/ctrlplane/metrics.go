package ctrlplane

import (
	"microp4/internal/obs"
)

// Metrics bundles the control-plane counters, registered in one
// obs.Registry and shared by a Client and its Agents (pass the same
// registry to both). The nil *Metrics and the zero Metrics are valid and
// count nothing — obs counters are nil-safe — so instrumentation call
// sites stay unconditional; NewClient replaces a nil Config.Metrics with
// the zero value, since the client reads the counter fields directly.
type Metrics struct {
	reg *obs.Registry

	Retries    *obs.Counter // up4_ctrl_retries_total: retransmissions sent
	Timeouts   *obs.Counter // up4_ctrl_timeouts_total: awaited replies that never came
	TxnCommits *obs.Counter // up4_ctrl_txn_commits_total
	TxnAborts  *obs.Counter // up4_ctrl_txn_aborts_total

	rejects map[string]*obs.Counter // up4_ctrl_rejects_total{class}
	breaker map[string]*obs.Gauge   // up4_ctrl_breaker_state{peer}
	flowLag map[string]*obs.Gauge   // up4_flow_sync_lag{node}
}

// NewMetrics registers the control-plane series in reg. Returns nil
// when reg is nil.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg:        reg,
		Retries:    reg.Counter("up4_ctrl_retries_total", "Control-plane retransmissions sent"),
		Timeouts:   reg.Counter("up4_ctrl_timeouts_total", "Control-plane requests that timed out awaiting a reply"),
		TxnCommits: reg.Counter("up4_ctrl_txn_commits_total", "Control-plane transactions committed"),
		TxnAborts:  reg.Counter("up4_ctrl_txn_aborts_total", "Control-plane transactions aborted"),
		rejects:    make(map[string]*obs.Counter),
		breaker:    make(map[string]*obs.Gauge),
		flowLag:    make(map[string]*obs.Gauge),
	}
}

// Reject counts one rejected op by class (a sim.Reject* string).
func (m *Metrics) Reject(class string) {
	if m == nil || m.reg == nil {
		return
	}
	c := m.rejects[class]
	if c == nil {
		c = m.reg.Counter("up4_ctrl_rejects_total",
			"Control-plane ops rejected by schema or protocol validation", obs.L("class", class))
		m.rejects[class] = c
	}
	c.Inc()
}

// FlowSyncLag returns the per-node replication lag gauge: flow entries
// awaiting standby acknowledgment, set each sync round. Nil when
// metrics are off.
func (m *Metrics) FlowSyncLag(node string) *obs.Gauge {
	if m == nil || m.reg == nil {
		return nil
	}
	g := m.flowLag[node]
	if g == nil {
		g = m.reg.Gauge("up4_flow_sync_lag",
			"Flow entries awaiting standby acknowledgment", obs.L("node", node))
		m.flowLag[node] = g
	}
	return g
}

// BreakerGauge returns the per-peer circuit breaker state gauge
// (0 closed, 1 open, 2 half-open). Nil when metrics are off.
func (m *Metrics) BreakerGauge(peer string) *obs.Gauge {
	if m == nil || m.reg == nil {
		return nil
	}
	g := m.breaker[peer]
	if g == nil {
		g = m.reg.Gauge("up4_ctrl_breaker_state",
			"Circuit breaker state per control channel (0 closed, 1 open, 2 half-open)", obs.L("peer", peer))
		m.breaker[peer] = g
	}
	return g
}
