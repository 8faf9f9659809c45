package main

import (
	"fmt"
	"os"
	"sort"

	"microp4"
	"microp4/internal/ctrlplane"
	"microp4/internal/lib"
	"microp4/internal/netsim"
	"microp4/internal/obs"
	"microp4/internal/sim"
)

// ctrlOpts collects the -ctrl flag values (the fault model is shared
// with -chaos).
type ctrlOpts struct {
	seed     uint64
	switches int
	model    netsim.FaultModel
	verbose  bool
}

// runCtrl demonstrates the resilient control plane: a controller client
// pushes the program's standard rule set to every switch as one
// two-phase-commit transaction whose messages ride seed-driven lossy
// links. The run prints the retry/fault account and then proves
// convergence by diffing each switch's behavior against a directly
// programmed twin. A committed switch that diverges from the twin is
// an error; an aborted transaction is not.
func runCtrl(program, engine string, o ctrlOpts) error {
	dp, err := buildDataplane(program)
	if err != nil {
		return err
	}
	eng := microp4.EngineCompiled
	if engine == "reference" {
		eng = microp4.EngineReference
	}

	n := netsim.New(o.seed)
	reg := obs.NewRegistry()
	metrics := ctrlplane.NewMetrics(reg)
	if o.verbose {
		n.OnFault(func(e netsim.FaultEvent) { fmt.Println("  fault:", e) })
		n.Bus().Subscribe(func(e sim.TraceEvent) {
			if e.Kind == "ctrl" {
				fmt.Printf("  ctrl: %-6s %-12s %s\n", e.Module, e.Name, e.Detail)
			}
		})
	}
	client, err := ctrlplane.NewClient(n, "ctrl", ctrlplane.Config{Seed: o.seed, Metrics: metrics})
	if err != nil {
		return err
	}
	const ctrlPort = 9
	switches := make(map[string]*microp4.Switch, o.switches)
	var names []string
	for i := 0; i < o.switches; i++ {
		name := fmt.Sprintf("s%d", i+1)
		names = append(names, name)
		sw := dp.NewSwitchWith(eng)
		sw.EnableMetrics()
		switches[name] = sw
		agent := ctrlplane.NewAgent(sw, ctrlplane.AgentConfig{
			Name: name, CtrlPort: ctrlPort, Metrics: metrics, Bus: n.Bus(),
		})
		if err := n.AddSwitch(name, agent); err != nil {
			return err
		}
		local := uint64(i + 1)
		if err := client.AddPeer(name, local); err != nil {
			return err
		}
		if err := n.Connect("ctrl", local, name, ctrlPort, o.model); err != nil {
			return err
		}
	}

	plan := rulePlan(program, names)
	fmt.Printf("ctrl: seed %#x, %d switches, model %+v\n", o.seed, o.switches, o.model)
	fmt.Printf("plan: %d ops as one transaction (the %s standard rule set)\n\n", len(plan), program)

	var result *ctrlplane.TxnResult
	if err := client.Transaction(plan, func(r ctrlplane.TxnResult) { result = &r }); err != nil {
		return err
	}
	if _, err := n.Run(0); err != nil {
		return err
	}
	if result == nil {
		return fmt.Errorf("network went quiet without resolving the transaction")
	}

	st := n.Stats()
	fmt.Printf("transaction %d: committed=%v, peer errors=%d\n", result.Txn, result.Committed, len(result.PeerErrs))
	for peer, err := range result.PeerErrs {
		fmt.Printf("  %s: %v\n", peer, err)
	}
	fmt.Printf("control traffic: %d deliveries, retries=%d, timeouts=%d\n",
		st.Steps, metrics.Retries.Value(), metrics.Timeouts.Value())
	var kinds []string
	for k := range st.Faults {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  fault %-9s %d\n", k, st.Faults[netsim.FaultKind(k)])
	}

	var diverged []string
	if result.Committed {
		fmt.Println("\nconvergence proof (behavior vs a directly programmed twin):")
		twin := dp.NewSwitchWith(eng)
		installRules(twin, program)
		packets := trafficFor(program)
		for _, name := range names {
			if diff := behaviorDiff(switches[name], twin, packets); diff != "" {
				fmt.Printf("  %s: DIVERGED: %s\n", name, diff)
				diverged = append(diverged, name)
			} else {
				fmt.Printf("  %s: identical forwarding on %d probe packets\n", name, len(packets))
			}
		}
	} else {
		fmt.Println("\ntransaction aborted: no switch applied any of its batch")
	}

	fmt.Println("\nfinal control-plane metrics:")
	if err := reg.WritePrometheus(os.Stdout); err != nil || len(diverged) == 0 {
		return err
	}
	return fmt.Errorf("ctrl: %v diverged from the directly programmed twin", diverged)
}

// rulePlan converts the program's standard rule set into a transaction
// plan replicated to every named switch.
func rulePlan(program string, peers []string) []ctrlplane.TxnOp {
	t := sim.NewTables()
	lib.InstallDefaultRules(t, program, false)
	var ops []ctrlplane.TxnOp
	for _, peer := range peers {
		for _, name := range t.TableNames() {
			for _, e := range t.Entries(name) {
				keys := make([]ctrlplane.CtrlKey, len(e.Keys))
				for i, k := range e.Keys {
					switch {
					case k.DontCare:
						keys[i] = ctrlplane.Any()
					case k.HasMask:
						keys[i] = ctrlplane.Ternary(k.Value, k.Mask)
					case k.PrefixLen > 0:
						keys[i] = ctrlplane.LPM(k.Value, k.PrefixLen)
					default:
						keys[i] = ctrlplane.Exact(k.Value)
					}
				}
				ops = append(ops, ctrlplane.TxnOp{Peer: peer,
					Op: ctrlplane.AddEntry(name, keys, e.Action, e.Args...)})
			}
		}
	}
	return ops
}

// behaviorDiff runs the probe packets through both switches and
// reports the first divergence ("" when identical).
func behaviorDiff(a, b *microp4.Switch, packets [][]byte) string {
	for i, data := range packets {
		outA, errA := a.Process(data, uint64(i%4))
		outB, errB := b.Process(data, uint64(i%4))
		if (errA == nil) != (errB == nil) {
			return fmt.Sprintf("probe %d: errors differ (%v vs %v)", i, errA, errB)
		}
		if len(outA) != len(outB) {
			return fmt.Sprintf("probe %d: %d outputs vs %d", i, len(outA), len(outB))
		}
		for j := range outA {
			if outA[j].Port != outB[j].Port || string(outA[j].Data) != string(outB[j].Data) {
				return fmt.Sprintf("probe %d output %d differs", i, j)
			}
		}
	}
	return ""
}
