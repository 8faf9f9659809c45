package sim

import (
	"errors"
	"testing"
)

func TestFirstOutcomeDiff(t *testing.T) {
	base := func() Outcome {
		return Outcome{Digests: []uint64{7}, Out: []OutPkt{{Port: 2, Data: []byte{1, 2, 3}}}}
	}
	cases := []struct {
		name   string
		change func(*Outcome)
		want   string
	}{
		{"same", func(*Outcome) {}, ""},
		{"error class", func(o *Outcome) { o.ErrClass = "parse" }, `error class: "" vs "parse"`},
		{"dropped", func(o *Outcome) { o.Dropped = true }, "dropped: false vs true"},
		{"parser reject", func(o *Outcome) { o.ParserReject = true }, "parser reject: false vs true"},
		{"recirculate", func(o *Outcome) { o.Recirculate = true }, "recirculate: false vs true"},
		{"mcast", func(o *Outcome) { o.Mcast = 4 }, "mcast group: 0 vs 4"},
		{"digest count", func(o *Outcome) { o.Digests = nil }, "digest count: 1 vs 0"},
		{"digest value", func(o *Outcome) { o.Digests = []uint64{8} }, "digest[0]: 0x7 vs 0x8"},
		{"output count", func(o *Outcome) { o.Out = nil }, "output count: 1 vs 0"},
		{"port", func(o *Outcome) { o.Out[0].Port = 3 }, "out[0] port: 2 vs 3"},
		{"length", func(o *Outcome) { o.Out[0].Data = []byte{1, 2} }, "out[0] length: 3 vs 2"},
		{"byte", func(o *Outcome) { o.Out[0].Data = []byte{1, 9, 3} }, "out[0] byte 1: 0x02 vs 0x09"},
		// The disposition is compared before digests and outputs.
		{"order", func(o *Outcome) { o.Dropped, o.Out = true, nil }, "dropped: false vs true"},
	}
	for _, tc := range cases {
		b := base()
		tc.change(&b)
		if got := FirstOutcomeDiff(base(), b); got != tc.want {
			t.Errorf("%s: FirstOutcomeDiff = %q, want %q", tc.name, got, tc.want)
		}
	}
	// The same error class is an agreed failure, whatever else differs.
	a, b := base(), Outcome{ErrClass: "parse"}
	a.ErrClass = "parse"
	if got := FirstOutcomeDiff(a, b); got != "" {
		t.Errorf("agreed failure: FirstOutcomeDiff = %q, want \"\"", got)
	}
}

func TestOutcomeOf(t *testing.T) {
	res := &ProcResult{Out: []OutPkt{{Port: 1, Data: []byte{0xaa}}}, Digests: []uint64{5}, McastGroup: 3}
	o := OutcomeOf(res, nil)
	res.Out[0].Data[0] = 0
	res.Digests[0] = 0
	if o.Out[0].Data[0] != 0xaa || o.Digests[0] != 5 || o.Mcast != 3 {
		t.Errorf("outcome aliases the result or lost a field: %+v", o)
	}
	if got := OutcomeOf(res, &ParseError{Program: "p", Reason: "short"}); got.ErrClass != "parse" || got.Out != nil {
		t.Errorf("errored run: %+v, want only the parse class", got)
	}
	if got := ErrClassOf(errors.New("boom")); got != "untyped:boom" {
		t.Errorf("ErrClassOf(untyped) = %q", got)
	}
}
