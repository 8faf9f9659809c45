package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the driver-facing description of
// this benchmark at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("BENCHMARK.json has unexpected key %q", k)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogue: the catalogue is self-consistent and every layer
// metric names the end-to-end metric and workload it should move.
func TestCatalogue(t *testing.T) {
	if err := checkCatalog(); err != nil {
		t.Fatal(err)
	}
	if n := len(workloadDefs); n != 7 {
		t.Errorf("%d workloads catalogued, want 7", n)
	}
	if n := len(e2eDefs); n != 13 {
		t.Errorf("%d end-to-end metrics catalogued, want 13", n)
	}
}

// TestBenchmarkFile: BENCHMARK.json obeys the driver's limits and is
// exactly the driver-facing projection of the catalogue — the same
// workloads, the contract subset of the end-to-end metrics, and every
// per-layer metric; nothing missing, nothing uncatalogued.
func TestBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d words", len(b.Command))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, outside 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, outside 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, outside 1..128", n)
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q used twice", n)
		}
		used[n] = true
	}

	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d catalogued", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q, catalogue has %q (or the reasons differ)", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(contractE2E) {
		t.Fatalf("%d end-to-end metrics declared, contract view has %d", len(b.EndToEnd), len(contractE2E))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		name("end-to-end metric", m.Name)
		def := contractE2E[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %q %q %q, contract view has %q %q %q", i, m.Name, m.Unit, m.Better, def.Name, def.Unit, def.Better)
			continue
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound != def.Bound {
			t.Errorf("%s: bound %v, outside (0, 0.25] or not the contract view's %v", m.Name, m.Bound, def.Bound)
		}
		// What the driver gates is a suite metric under another name: same
		// direction, and no looser than the suite's own bound.
		for _, src := range []string{def.Packet, def.Ctl} {
			sm, ok := e2eByName(src)
			if !ok {
				continue // commit_visible_us_p90 is reported, not one of the thirteen
			}
			if sm.Abs || sm.Better != def.Better || (m.Name != "setup_s" && m.Bound > sm.Bound) {
				t.Errorf("%s stands for %s (%s, bound %v, absolute %v)", m.Name, src, sm.Better, sm.Bound, sm.Abs)
			}
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == lower
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	layers := layerDefs()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics declared, %d catalogued", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		name("per-layer metric", m.Name)
		l := layers[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %q %q %q, catalogue has %q %q %q", i, m.Name, m.Unit, m.Better, l.Name, l.Unit, l.Better)
		}
	}
}
