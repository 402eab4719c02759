// Command benchmark is orthoq's benchmark: three closed-loop workloads
// over TPC-H at SF 0.01 (tpch_cold, tpch_warm, serve_mixed), each
// checked against a reference answer computed at set-up. An untraced
// run prints the end-to-end metrics; a traced run (--trace 1) prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh:
//
//	bash benchmark/run.sh --workload tpch_cold --seed 1 --seconds 30 --trace 0
//
// --compare OLD NEW prints per-layer deltas between two sets of saved
// runs (see compare.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{sf: 0.01, setupReps: 3, workDir: filepath.Join(".bench_build", "work")}
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "tpch_cold, tpch_warm or serve_mixed")
	fs.Int64Var(&o.seed, "seed", 1, "traffic seed: query order, key and variant draws")
	fs.Int64Var(&o.dataSeed, "data-seed", 1, "TPC-H generator seed")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&compare, "compare", false, "compare two files of saved traced runs: --compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: --compare OLD NEW")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	o.traced = trace == 1
	res, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload and prints a header line naming it and
// its settings; the result is returned for the caller to print last.
func runWorkload(o options, stdout io.Writer) (Result, error) {
	fmt.Fprintf(stdout, "workload=%s seed=%d data_seed=%d sf=%g seconds=%g trace=%t\n",
		o.workload, o.seed, o.dataSeed, o.sf, o.seconds, o.traced)
	var rep *report
	var err error
	switch o.workload {
	case wlCold, wlWarm:
		rep, err = runTPCH(o, stdout)
	case wlServe:
		rep, err = runServe(o, stdout)
	default:
		return Result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return Result{}, err
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "problem:", p)
	}
	if rep.failed > 0 {
		kinds := make([]string, 0, len(rep.failedBy))
		for k, n := range rep.failedBy {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(stdout, "failed by kind: %s\n", strings.Join(kinds, " "))
	}
	return rep.result(o.traced), nil
}

// options are the benchmark arguments shared by every workload.
type options struct {
	workload string
	// seed drives the traffic: query order per pass, key and variant
	// draws. dataSeed drives the TPC-H generator.
	seed, dataSeed int64
	sf             float64
	seconds        float64
	traced         bool
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
	// workDir holds the durable data directories.
	workDir string
	// corruptReference perturbs one reference answer, so a correct run
	// must report a failure (the benchmark's own test).
	corruptReference bool
}
