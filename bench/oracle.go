package main

import (
	"bytes"
	"errors"

	"microp4"
)

// The correctness oracle: every workload's verification pass feeds the
// same sequence, from the same fresh state, to the compiled engine and
// to a reference-interpreter twin, and compares everything a caller can
// observe — output count, ports, bytes, error class, digests.

// oracle accumulates comparisons for one verification pass.
type oracle struct {
	oracleCount
	tamper bool // flip one byte of the next non-empty reference output, once
}

// errClass names the typed error class of a Process error ("" for nil).
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range []struct {
		sentinel error
		name     string
	}{
		{microp4.ErrParse, "parse"}, {microp4.ErrDeparse, "deparse"}, {microp4.ErrTable, "table"},
		{microp4.ErrEngine, "engine"}, {microp4.ErrRecirc, "recirc"}, {microp4.ErrControl, "control"},
		{microp4.ErrFlow, "flow"}, {microp4.ErrUpgrade, "upgrade"},
	} {
		if errors.Is(err, c.sentinel) {
			return c.name
		}
	}
	return "untyped"
}

// same compares one packet's outcome on the engine under test (got)
// with the reference twin's (want), counting one attempt and at most
// one failure.
func (o *oracle) same(label string, i int, got []microp4.Output, gotErr error, want []microp4.Output, wantErr error) {
	o.Attempted++
	if o.tamper {
		for k := range want {
			if len(want[k].Data) > 0 {
				want[k].Data[len(want[k].Data)/2] ^= 0x01
				o.tamper = false
				break
			}
		}
	}
	if g, w := errClass(gotErr), errClass(wantErr); g != w {
		o.fail("%s packet %d: error class %q, reference %q", label, i, g, w)
		return
	}
	if len(got) != len(want) {
		o.fail("%s packet %d: %d outputs, reference %d", label, i, len(got), len(want))
		return
	}
	for k := range got {
		if got[k].Port != want[k].Port {
			o.fail("%s packet %d output %d: port %d, reference %d", label, i, k, got[k].Port, want[k].Port)
			return
		}
		if !bytes.Equal(got[k].Data, want[k].Data) {
			o.fail("%s packet %d output %d: %d bytes differ from reference", label, i, k, len(got[k].Data))
			return
		}
	}
}

// sameDigests compares the digests two switches raised since the last
// drain.
func (o *oracle) sameDigests(label string, i int, a, b *microp4.Switch) {
	da, db := a.Digests(), b.Digests()
	if len(da) != len(db) {
		o.fail("%s packet %d: %d digests, reference %d", label, i, len(da), len(db))
		return
	}
	for k := range da {
		if da[k] != db[k] {
			o.fail("%s packet %d: digest %d is %#x, reference %#x", label, i, k, da[k], db[k])
			return
		}
	}
}

// intent checks an outcome against what the generator meant the packet
// to do: leave on port (one output) or, for noPort, be dropped.
func (o *oracle) intent(label string, i int, got []microp4.Output, port int) {
	if !matches(got, port) {
		o.fail("%s packet %d: left on ports %v, generator expects port %d (%d = dropped)", label, i, ports(got), port, noPort)
	}
}

func ports(outs []microp4.Output) []uint64 {
	p := make([]uint64, len(outs))
	for i, o := range outs {
		p[i] = o.Port
	}
	return p
}

// lockstep runs pkts through both switches in order, comparing each
// outcome and the digests raised, and checking generator intent where
// want is non-nil.
func (o *oracle) lockstep(label string, sw, ref *microp4.Switch, pkts [][]byte, inPort uint64, want []int) {
	for i, p := range pkts {
		got, gerr := sw.Process(p, inPort)
		exp, eerr := ref.Process(p, inPort)
		before := o.Failed
		o.same(label, i, got, gerr, exp, eerr)
		if o.Failed == before {
			o.sameDigests(label, i, sw, ref)
		}
		if o.Failed == before && want != nil {
			o.intent(label, i, got, want[i])
		}
	}
}

// twin builds a compiled-engine switch and its reference-interpreter
// twin from one dataplane, applying the same install to both.
func twin(dp *microp4.Dataplane, install func(*microp4.Switch) error) (sw, ref *microp4.Switch, err error) {
	sw, ref = dp.NewSwitch(), dp.NewSwitchWith(microp4.EngineReference)
	for _, s := range []*microp4.Switch{sw, ref} {
		if err := install(s); err != nil {
			return nil, nil, err
		}
	}
	return sw, ref, nil
}
