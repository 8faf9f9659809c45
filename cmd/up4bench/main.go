// Command up4bench regenerates the paper's evaluation artifacts on the
// modeled targets:
//
//	up4bench                 # everything
//	up4bench -table 2        # Table 2 only (PHV overhead)
//	up4bench -figure 9       # the §5.2 worked example
//
// Tables 2 and 3 compare each composed program P1..P11 against its
// monolithic baseline on the modeled Tofino; Figures 9, 10, and 13 are
// the paper's worked examples (static analysis, parser→MAT, slicing).
package main

import (
	"flag"
	"fmt"
	"os"

	"microp4/internal/eval"
)

func main() {
	var (
		table   = flag.Int("table", 0, "print only this table (1-3)")
		figure  = flag.Int("figure", 0, "print only this figure (9, 10, or 13)")
		timings = flag.Bool("timings", false, "print only the aggregated compiler pass timings")
	)
	flag.Parse()
	if err := run(*table, *figure, *timings); err != nil {
		fmt.Fprintf(os.Stderr, "up4bench: %v\n", err)
		os.Exit(1)
	}
}

func run(table, figure int, timings bool) error {
	all := table == 0 && figure == 0 && !timings

	if all || table == 1 {
		fmt.Println(eval.Table1())
	}
	if all || table == 2 || table == 3 {
		pairs, err := eval.CompileAll()
		if err != nil {
			return err
		}
		if all || table == 2 {
			fmt.Println(eval.Table2(pairs))
		}
		if all || table == 3 {
			fmt.Println(eval.Table3(pairs))
		}
	}
	if all || figure == 9 {
		out, _, err := eval.Figure9()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if all || figure == 10 {
		out, err := eval.Figure10()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if all || figure == 13 {
		out, err := eval.Figure13()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if all || timings {
		out, err := eval.TimingsTable()
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if all {
		fmt.Println(eval.ModuleList())
	}
	return nil
}
