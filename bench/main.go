// Command bench is the repository's benchmark: seven named workloads,
// thirteen end-to-end metrics checked against the reference interpreter,
// and a traced run with per-layer probes. BENCHMARK.json at the root of
// the repository describes it to the driver; README.md beside this file
// is the catalogue and the method.
//
//	go run ./bench                                  the suite: every workload, all thirteen metrics
//	go run ./bench -traced                          the suite plus the traced run (per-layer metrics)
//	go run ./bench -workload fwd_std -seed 7 -seconds 8 -trace 0   one workload, driver contract
//	go run ./bench -compare a.json b.json           judge two suite result files
//	go run ./bench -selfcheck                       run the suite twice and compare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, false))
}

const resultSchema = "up4bench/bench/v1"

// measuredRounds is how many rounds every run measures; -seconds sets
// their length.
const measuredRounds = 10

// environment is recorded with every suite result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// suiteResult is what a suite run writes with -out and -compare reads.
type suiteResult struct {
	Schema      string                 `json:"schema"`
	Env         environment            `json:"env"`
	Seed        uint64                 `json:"seed"`
	Rounds      int                    `json:"rounds"`
	RoundSecs   float64                `json:"round_seconds"`
	WallSeconds float64                `json:"wall_seconds"`
	Workloads   []*result              `json:"workloads"`
	Layers      map[string]metricValue `json:"layers,omitempty"`
}

// run is main with its inputs and outputs as parameters; tamper is the
// oracle self-test hook (see config.tamper).
func run(args []string, stdout, stderr io.Writer, tamper bool) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload under the driver contract (default: the whole suite)")
		seed         = fs.Uint64("seed", 1, "workload seed")
		seconds      = fs.Float64("seconds", 10, "measured seconds per workload, split over ten rounds")
		trace        = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
		traced       = fs.Bool("traced", false, "suite: also make the traced run and report per-layer metrics")
		spansOut     = fs.String("spans", "", "traced runs: write the recorded spans to this file")
		out          = fs.String("out", "", "suite: write the result JSON to this file")
		compare      = fs.Bool("compare", false, "compare two suite result files given as arguments")
		selfcheck    = fs.Bool("selfcheck", false, "run the suite twice and compare the two results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := checkCatalog(); err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1), fail)
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("need -seconds > 0"))
	}
	cfg := config{
		Seed:     *seed,
		Rounds:   measuredRounds,
		RoundDur: time.Duration(*seconds / measuredRounds * float64(time.Second)),
		Log:      stderr,
		tamper:   tamper,
	}

	switch {
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		if *trace == 1 {
			return contractTraced(stdout, w, cfg, *spansOut, fail)
		}
		return contractRun(stdout, w, cfg, fail)
	case *selfcheck:
		a, err := runSuite(stdout, cfg, false, "")
		if err != nil {
			return fail(err)
		}
		b, err := runSuite(stdout, cfg, false, "")
		if err != nil {
			return fail(err)
		}
		return judge(stdout, a, b, true)
	default:
		res, err := runSuite(stdout, cfg, *traced, *spansOut)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeJSONFile(*out, res); err != nil {
				return fail(err)
			}
		}
		if suiteFailed(res) {
			return 1
		}
		return 0
	}
}

func suiteFailed(s *suiteResult) bool {
	for _, r := range s.Workloads {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func currentEnv() environment {
	env := environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// runSuite runs every workload with tracing off and prints the
// end-to-end table; with traced set it then makes the traced run.
func runSuite(stdout io.Writer, cfg config, traced bool, spansOut string) (*suiteResult, error) {
	start := time.Now()
	s := &suiteResult{Schema: resultSchema, Env: currentEnv(), Seed: cfg.Seed, Rounds: cfg.Rounds,
		RoundSecs: cfg.RoundDur.Seconds()}
	fmt.Fprintf(stdout, "bench: seed %d, %d rounds of %.2fs; %d cpus, GOMAXPROCS %d, %s, %s, commit %s\n",
		cfg.Seed, cfg.Rounds, cfg.RoundDur.Seconds(), s.Env.NumCPU, s.Env.GOMAXPROCS, s.Env.Go, s.Env.CPU, s.Env.Commit)
	for _, w := range workloads() {
		t0 := time.Now()
		res, err := runWorkload(w, &cfg)
		if err != nil {
			return nil, err
		}
		s.Workloads = append(s.Workloads, res)
		printResult(stdout, res, time.Since(t0))
	}
	s.WallSeconds = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "end-to-end runs: %.1fs wall\n", s.WallSeconds)
	if traced {
		t0 := time.Now()
		layers, err := tracedSuite(stdout, cfg, spansOut)
		if err != nil {
			return nil, err
		}
		s.Layers = layers
		printLayers(stdout, layers)
		printRelations(stdout, sanityRelations(layers, s.Env.NumCPU))
		fmt.Fprintf(stdout, "traced run: %.1fs wall\n", time.Since(t0).Seconds())
	}
	return s, nil
}

// printResult prints one workload's end-to-end metrics by name, with
// unit and sample count.
func printResult(w io.Writer, r *result, took time.Duration) {
	fmt.Fprintf(w, "%s  (attempted %d, failed %d, %.1fs)\n", r.Workload, r.Attempted, r.Failed, took.Seconds())
	for _, def := range e2eDefs {
		if m, ok := r.Metrics[def.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.4f %-10s n=%d\n", def.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, name := range sortedKeys(r.Aux) {
		m := r.Aux[name]
		fmt.Fprintf(w, "  %-26s %14.4f %-10s n=%d  (reported, not gated)\n", name, m.Value, m.Unit, m.N)
	}
}

func printLayers(w io.Writer, layers map[string]metricValue) {
	fmt.Fprintln(w, "per-layer metrics")
	for _, name := range sortedKeys(layers) {
		m := layers[name]
		fmt.Fprintf(w, "  %-38s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// contractMetrics projects a workload's result onto the end-to-end
// metrics BENCHMARK.json declares (see contractDef).
func contractMetrics(r *result) (map[string]metricValue, error) {
	view := map[string]metricValue{}
	for _, c := range contractE2E {
		src, factor := c.Packet, 1.0
		if r.Workload == "ctl_ops" {
			src, factor = c.Ctl, c.CtlScale
		}
		m, ok := r.Metrics[src]
		if !ok {
			m, ok = r.Aux[src]
		}
		if !ok || m.N == 0 {
			return nil, fmt.Errorf("%s: no %s to report as %s", r.Workload, src, c.Name)
		}
		v := m.Value * factor
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s is %v", r.Workload, c.Name, v)
		}
		view[c.Name] = metricValue{Value: v, Unit: c.Unit}
	}
	return view, nil
}

// contractLine is the last line of a driver-contract run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printContractLine(w io.Writer, attempted, failed int64, metrics map[string]metricValue) int {
	line, err := json.Marshal(contractLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if failed != 0 {
		return 1
	}
	return 0
}

// contractRun is `-workload W -trace 0`: one workload, tracing off, the
// declared end-to-end metrics on the last line.
func contractRun(stdout io.Writer, w *workload, cfg config, fail func(error) int) int {
	t0 := time.Now()
	res, err := runWorkload(w, &cfg)
	if err != nil {
		return fail(err)
	}
	printResult(stdout, res, time.Since(t0))
	view, err := contractMetrics(res)
	if err != nil {
		return fail(err)
	}
	return printContractLine(stdout, res.Attempted, res.Failed, view)
}
