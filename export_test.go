package microp4

import "microp4/internal/sim"

// InstallUnchecked installs a table entry without consulting the control
// schema, for tests of how the dataplane fails on state the schema would
// have refused.
func (s *Switch) InstallUnchecked(table string, keys []Key, action string, args ...uint64) {
	s.tables.AddEntry(table, toRuntime(keys), action, args...)
}

// TableEntries returns a table's runtime entries, for tests that
// compare the control state of two switches.
func (s *Switch) TableEntries(table string) []sim.RuntimeEntry { return s.tables.Entries(table) }

// The parallel batch path's internals, for the dispatcher and pool tests.
var FlowBucket = flowBucket

const (
	MinParallelBatch = minParallelBatch
	HelperIdle       = helperIdle
)

// SetDispatchMutation sets the dispatch test hook (see dispatchMutation).
func SetDispatchMutation(m int) { dispatchMutation = m }

// Dispatch returns the flow buckets a batch of pkts is split into at the
// given worker count.
func Dispatch(pkts [][]byte, workers int) [][]int32 {
	var p workerPool
	p.dispatch(pkts, workers*bucketsPerWorker)
	return p.buckets
}

// HelperStarts returns how many helper goroutines s has started, ever.
func (s *Switch) HelperStarts() int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return s.pool.starts
}

// HelpersParked reports whether s has helpers and none of them is
// polling for a batch.
func (s *Switch) HelpersParked() bool {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for _, h := range s.pool.helpers {
		if h.state.Load() == helperRunning {
			return false
		}
	}
	return len(s.pool.helpers) > 0
}

// StrandHelpers makes a fresh switch believe its helpers are polling
// when none exists, so that every parallel batch is drained by the
// caller alone: the case of helpers that never arrive.
func (s *Switch) StrandHelpers(workers int) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	for len(s.pool.helpers) < workers-1 {
		h := &helper{unpark: make(chan struct{}, 1)}
		h.state.Store(helperRunning)
		s.pool.helpers = append(s.pool.helpers, h)
	}
}
