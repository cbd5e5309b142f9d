// Command tsbench runs the reproduction's experiments E1-E9 and prints
// their tables: the measurement plan stated in §3.2/§5 of Lomet &
// Salzberg (SIGMOD 1989) plus the paper's qualitative claims. It is the
// paper's evaluation, not a performance trajectory: the repo's one
// benchmark is bench/ (bash bench/run.sh, see docs/ARCHITECTURE.md).
//
// Usage:
//
//	tsbench [-exp all|E1,E2,...] [-ops N] [-value BYTES] [-seed N]
//	        [-dist uniform|zipf|sequential]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	expFlag := flag.String("exp", "all", "experiments to run (comma-separated E1..E9, or 'all')")
	ops := flag.Int("ops", 20000, "operations per run")
	value := flag.Int("value", 32, "record payload bytes")
	seed := flag.Int64("seed", 1, "workload seed")
	dist := flag.String("dist", "uniform", "update-target distribution: uniform, zipf, sequential")
	flag.Parse()

	var d workload.Distribution
	switch *dist {
	case "uniform":
		d = workload.Uniform
	case "zipf":
		d = workload.Zipf
	case "sequential":
		d = workload.Sequential
	default:
		fmt.Fprintf(os.Stderr, "tsbench: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for i := 1; i <= 9; i++ {
			want[fmt.Sprintf("E%d", i)] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(e))] = true
		}
	}
	p := experiments.Params{Ops: *ops, ValueSize: *value, Seed: *seed, Dist: d}

	if err := run(want, p); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}

func run(want map[string]bool, p experiments.Params) error {
	needSweep := want["E1"] || want["E2"] || want["E3"] || want["E4"] ||
		want["E6"] || want["E7"] || want["E8"]
	var sweep *experiments.Sweep
	if needSweep {
		fmt.Printf("running space sweep: %d ops x %d policies x %d update fractions ...\n",
			p.Ops, len(experiments.PolicyNames), len(experiments.UpdateFractions))
		var err error
		sweep, err = experiments.RunSweep(p)
		if err != nil {
			return err
		}
	}
	if want["E1"] {
		fmt.Println(sweep.E1TotalSpace())
	}
	if want["E2"] {
		fmt.Println(sweep.E2CurrentSpace())
	}
	if want["E3"] {
		fmt.Println(sweep.E3Redundancy())
	}
	if want["E4"] {
		fmt.Println(sweep.E4CostFunction(0.6))
	}
	if want["E5"] {
		_, tab, err := experiments.E5SearchIO(p)
		if err != nil {
			return err
		}
		fmt.Println(tab)
	}
	if want["E6"] {
		fmt.Println(sweep.E6SectorUtilization())
	}
	if want["E7"] {
		fmt.Println(sweep.E7SplitTimeChoice())
	}
	if want["E8"] {
		fmt.Println(sweep.E8IndexSplits())
	}
	if want["E9"] {
		_, tab, err := experiments.E9ReadOnly(4, 4, 200, 50)
		if err != nil {
			return err
		}
		fmt.Println(tab)
	}
	return nil
}
