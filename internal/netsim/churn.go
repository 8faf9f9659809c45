package netsim

import (
	"math/rand"
	"sync"

	"microp4"
	"microp4/internal/obs"
)

// ChurnTarget is the validated, error-returning control-plane surface
// the churn injector drives. *microp4.Switch implements it; the
// Switch's documented concurrency contract makes every operation safe
// to race live Process calls. Churn counts the rejects, so schema
// violations are an observable signal (up4_churn_rejects_total), not a
// silent no-op.
type ChurnTarget interface {
	TryAddEntry(table string, keys []microp4.Key, action string, args ...uint64) error
	TrySetDefault(table, action string, args ...uint64) error
	TryClearTable(table string) error
	TrySetMulticastGroup(gid uint64, ports ...uint64) error
}

// ChurnConfig bounds what the injector mutates. Zero-valued fields
// disable the corresponding operation class.
type ChurnConfig struct {
	// Tables are candidate fully-qualified table names for
	// AddEntry/ClearTable/SetDefault churn.
	Tables []string
	// Actions is the action installed by churned entries/defaults, per
	// table; tables with no mapping get entries naming the table's
	// first candidate in Actions[""] (a global fallback).
	Actions map[string]string
	// API, when set, shapes the random operations to the dataplane's
	// control schema: match keys take each column's kind and width, and
	// action arguments take the parameter list's arity and widths —
	// instead of the blind one-exact-16-bit-key fallback. Churned ops
	// then exercise real table state rather than bouncing off
	// validation.
	API *microp4.ControlAPI
	// ArgCount/ArgMax bound the random action arguments for tables the
	// API does not describe.
	ArgCount int
	ArgMax   uint64
	// Groups are multicast group ids to reprogram; Ports the candidate
	// replication ports.
	Groups []uint64
	Ports  []uint64
}

func (c ChurnConfig) empty() bool { return len(c.Tables) == 0 && len(c.Groups) == 0 }

// Churn is a deterministic control-plane churn injector: a seed-driven
// sequence of AddEntry / SetDefault / ClearTable / SetMulticastGroup
// calls against one switch. Step is safe to call from its own
// goroutine while other goroutines drive Process on the same switch —
// that is the race the chaos tests exist to exercise.
type Churn struct {
	mu      sync.Mutex
	rng     *rand.Rand
	target  ChurnTarget
	cfg     ChurnConfig
	schema  map[string]*microp4.ControlTable // by table name, from cfg.API
	count   uint64
	rejectN uint64
	rejects *obs.Counter // optional: up4_churn_rejects_total
	ops     int          // ops per network delivery, when attached via AddChurn
}

// NewChurn returns an injector driving target from a private stream.
func NewChurn(seed uint64, target ChurnTarget, cfg ChurnConfig) *Churn {
	c := &Churn{rng: rand.New(rand.NewSource(int64(splitmix64(seed)))), target: target, cfg: cfg}
	if cfg.API != nil {
		c.schema = make(map[string]*microp4.ControlTable, len(cfg.API.Tables))
		for i := range cfg.API.Tables {
			c.schema[cfg.API.Tables[i].Name] = &cfg.API.Tables[i]
		}
	}
	return c
}

// CountRejects attaches a counter incremented once per rejected op.
func (c *Churn) CountRejects(counter *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rejects = counter
}

// Ops returns the number of operations performed so far.
func (c *Churn) Ops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Rejects returns the number of operations the validated API refused.
func (c *Churn) Rejects() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rejectN
}

// Step performs one random control-plane operation.
func (c *Churn) Step() { c.StepN(1) }

// StepN performs n operations (no-op when the config is empty).
func (c *Churn) StepN(n int) {
	if c.cfg.empty() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		c.step()
	}
}

// checked routes one op result through the reject accounting.
func (c *Churn) checked(err error) {
	if err != nil {
		c.rejectN++
		c.rejects.Inc()
	}
}

func (c *Churn) step() {
	c.count++
	r := c.rng
	// Multicast churn interleaves with table churn when both configured.
	if len(c.cfg.Groups) > 0 && (len(c.cfg.Tables) == 0 || r.Intn(4) == 0) {
		gid := c.cfg.Groups[r.Intn(len(c.cfg.Groups))]
		nports := r.Intn(len(c.cfg.Ports) + 1)
		ports := make([]uint64, 0, nports)
		for j := 0; j < nports; j++ {
			ports = append(ports, c.cfg.Ports[r.Intn(len(c.cfg.Ports))])
		}
		c.checked(c.target.TrySetMulticastGroup(gid, ports...))
		return
	}
	table := c.cfg.Tables[r.Intn(len(c.cfg.Tables))]
	action := c.cfg.Actions[table]
	if action == "" {
		action = c.cfg.Actions[""]
	}
	args := c.argsFor(table, action)
	switch r.Intn(8) {
	case 0:
		c.checked(c.target.TryClearTable(table))
	case 1:
		if action != "" {
			c.checked(c.target.TrySetDefault(table, action, args...))
		}
	default:
		if action != "" {
			c.checked(c.target.TryAddEntry(table, c.keysFor(table), action, args...))
		}
	}
}

// keysFor draws a random key tuple shaped by the table's control
// schema: one key per column, each matching the column's kind and
// width. Tables the schema does not describe fall back to the blind
// single 16-bit exact key.
func (c *Churn) keysFor(table string) []microp4.Key {
	ct := c.schema[table]
	if ct == nil {
		return []microp4.Key{microp4.Exact(c.rng.Uint64() & 0xFFFF)}
	}
	keys := make([]microp4.Key, len(ct.Keys))
	for i, col := range ct.Keys {
		mask := widthMask(col.Width)
		switch col.MatchKind {
		case "lpm":
			keys[i] = microp4.LPM(c.rng.Uint64()&mask, c.rng.Intn(col.Width+1))
		case "ternary":
			keys[i] = microp4.Ternary(c.rng.Uint64()&mask, c.rng.Uint64()&mask)
		case "exact":
			keys[i] = microp4.Exact(c.rng.Uint64() & mask)
		default:
			keys[i] = microp4.Any()
		}
	}
	return keys
}

// argsFor draws action arguments: schema-shaped (arity and widths from
// the action's parameter list) when known, the blind ArgCount/ArgMax
// fallback otherwise.
func (c *Churn) argsFor(table, action string) []uint64 {
	if ct := c.schema[table]; ct != nil {
		for i := range ct.Actions {
			if ct.Actions[i].Name != action {
				continue
			}
			args := make([]uint64, len(ct.Actions[i].Params))
			for j, p := range ct.Actions[i].Params {
				args[j] = c.rng.Uint64() & widthMask(p.Width)
			}
			return args
		}
	}
	args := make([]uint64, c.cfg.ArgCount)
	for j := range args {
		if c.cfg.ArgMax > 0 {
			args[j] = c.rng.Uint64() % (c.cfg.ArgMax + 1)
		}
	}
	return args
}

// widthMask returns the value mask of a w-bit field.
func widthMask(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	if w <= 0 {
		return 0
	}
	return (uint64(1) << uint(w)) - 1
}
