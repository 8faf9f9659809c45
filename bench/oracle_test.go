package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

// lastLine parses the driver-contract result line a run printed last.
func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// TestOracleBites flips one byte of a reference output and expects the
// run to notice: a failure counted, fail_ratio above zero, "correct"
// false and a non-zero exit. The same run untampered is clean.
func TestOracleBites(t *testing.T) {
	args := []string{"-workload", "fwd_std", "-seconds", "0.1", "-trace", "0"}
	var out bytes.Buffer
	if code := run(args, &out, io.Discard, false); code != 0 {
		t.Fatalf("clean run exited %d:\n%s", code, out.String())
	}
	if line := lastLine(t, out.String()); !line.Correct || line.Failed != 0 || line.Attempted < 256 {
		t.Errorf("clean run reported %+v", line)
	}
	out.Reset()
	if code := run(args, &out, io.Discard, true); code == 0 {
		t.Error("tampered run exited 0")
	}
	if line := lastLine(t, out.String()); line.Correct || line.Failed == 0 {
		t.Errorf("tampered run reported %+v", line)
	}

	cfg := &config{Seed: 1, Rounds: 3, RoundDur: 10 * time.Millisecond, Setups: 1, tamper: true}
	res, err := runWorkload(workloadByName("fwd_std"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr := res.Metrics["fail_ratio"].Value; fr <= 0 {
		t.Errorf("tampered fail_ratio = %v, want > 0", fr)
	}
}

// TestEveryOracleBites runs each workload's verification pass with one
// reference byte flipped: every one of them must count a failure.
// (TestSmoke runs them untampered and expects none.)
func TestEveryOracleBites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every verification pass")
	}
	progs, err := buildCtlPrograms(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		verify := w.verify
		if verify == nil { // ctl_ops
			verify = func(cfg *config) (oracleCount, error) { return verifyCtlOps(cfg, progs) }
		}
		bad, err := verify(&config{Seed: 2, tamper: true})
		if err != nil {
			t.Fatalf("%s: %v", w.def.Name, err)
		}
		if bad.Failed == 0 {
			t.Errorf("%s: a flipped reference byte went unnoticed", w.def.Name)
		}
	}
}
