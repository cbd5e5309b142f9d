// Command bench is the repository's one benchmark: four named
// workloads, end-to-end and per-layer metrics, and a traced ladder run.
// See README.md in this directory; BENCHMARK.json at the repository
// root declares it to the driver.
//
//	bench -workload oltp-mem -seed 1 -seconds 10 -trace 0   one gated run (the driver's form)
//	bench -workload oltp-mem -seed 1 -seconds 10 -trace 1   one traced run: per-layer metrics + ladder
//	bench -all -seed 1 -out DIR                             every workload, gated and traced, DIR/results.json
//	bench -compare a.json b.json                            regression verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: oltp-mem, temporal-read, durable-paged, served")
		seed     = flag.Uint64("seed", 1, "every input is generated from the seed")
		seconds  = flag.Int("seconds", runSeconds, "nominal length of the measured phase: its op count is the workload's frozen rate x seconds")
		trace    = flag.Int("trace", 0, "0: gated run, end-to-end metrics; 1: traced run, per-layer metrics and the ladder")
		scale    = flag.Float64("scale", frozenScale, "size factor on the issue's sizes; recorded baselines use the default")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for data, trace and result files")
		all      = flag.Bool("all", false, "run every workload, gated and traced")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json")
		childDir = flag.String("child-dir", "", "internal: run durable-paged as the child to be killed, in this directory")
	)
	flag.Parse()
	switch {
	case *emit:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || *scale <= 0 {
		fatalf("-seconds and -scale must be positive")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, workDir: *out}
	mustMkdir(cfg.workDir)
	if *all {
		os.Exit(runAll(cfg))
	}
	spec, ok := specByName(cfg.workload)
	if !ok {
		fatalf("unknown workload %q", cfg.workload)
	}
	if *childDir != "" {
		if err := runDurableChild(cfg, *childDir); err != nil {
			fatalf("durable child: %v", err)
		}
		return
	}
	run := runInProcess
	if spec.paged {
		run = runDurable
	}
	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.Correct = res.Failed == 0
	res.report(os.Stderr)
	if _, err := res.save(cfg.workDir); err != nil {
		fatalf("%v", err)
	}
	line, err := res.contractLine()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload gated and traced, each in its own process
// so that peak_rss_mb belongs to one workload, and appends the results
// to <out>/results.json: running it again into the same directory
// collects the repeats -compare takes medians over.
func runAll(cfg runConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	path := filepath.Join(cfg.workDir, "results.json")
	var results []result
	if _, err := os.Stat(path); err == nil {
		if results, err = loadResults(path); err != nil {
			fatalf("%v", err)
		}
	}
	code := 0
	for _, w := range specs {
		for _, tr := range []int{0, 1} {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(tr),
				"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64), "-out", cfg.workDir)
			cmd.Stderr = os.Stderr // the child's report
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %d: %v\n", w.name, tr, err)
				code = 1
				continue
			}
			r := result{Workload: w.name, Trace: tr != 0}
			rs, err := loadResults(filepath.Join(cfg.workDir, resultFileName(&r)))
			if err != nil {
				fatalf("%v", err)
			}
			results = append(results, rs...)
		}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s\n", path)
	return code
}
