package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the recorder was created; Parent is the index
// of the enclosing span in the recorder (-1 at the root).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// spans is the benchmark's own span recorder: it wraps the calls the
// benchmark makes into each layer, keeps everything in memory, and is
// written out (or summarized) when the run ends. The nil recorder is
// valid and records nothing, so end-to-end runs carry no tracing work
// beyond a nil check. It is used from the generator goroutine only.
type spans struct {
	t0       time.Time
	workload string
	round    int
	all      []span
	stack    []int
}

func newSpans(workload string) *spans {
	return &spans{t0: time.Now(), workload: workload, round: -1, all: make([]span, 0, 1<<16)}
}

// open starts a span and returns its id for close.
func (s *spans) open(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := len(s.all)
	s.all = append(s.all, span{Name: name, Start: int64(time.Since(s.t0)), Parent: parent,
		Workload: s.workload, Round: s.round})
	s.stack = append(s.stack, id)
	return id
}

// close ends the span open returned id for; spans close innermost
// first.
func (s *spans) close(id int) {
	if s == nil {
		return
	}
	s.all[id].End = int64(time.Since(s.t0))
	s.stack = s.stack[:len(s.stack)-1]
}

// begin is open/close for call sites off the hot path.
func (s *spans) begin(name string) (end func()) {
	id := s.open(name)
	return func() { s.close(id) }
}

func (s *spans) setRound(r int) {
	if s != nil {
		s.round = r
	}
}

// write emits the recorded spans as a JSON array.
func (s *spans) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s.all)
}

// selfTime is one row of the self-time table: a span name's call count,
// total duration, and duration minus the time its child spans cover.
type selfTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes folds the spans by name. A span's self time is its duration
// minus the durations of its direct children (children never overlap:
// the recorder is single-threaded and strictly nested).
func (s *spans) selfTimes() []selfTime {
	if s == nil {
		return nil
	}
	child := make([]int64, len(s.all))
	for _, sp := range s.all {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*selfTime{}
	for i, sp := range s.all {
		st := byName[sp.Name]
		if st == nil {
			st = &selfTime{Name: sp.Name}
			byName[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.Count++
		st.TotalNs += d
		st.SelfNs += d - child[i]
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out
}

func printSelfTimes(w io.Writer, workload string, rows []selfTime) {
	fmt.Fprintf(w, "spans of %s (self = duration - child spans)\n", workload)
	fmt.Fprintf(w, "  %-22s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9d %12.3f %12.3f\n", r.Name, r.Count, float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6)
	}
}
