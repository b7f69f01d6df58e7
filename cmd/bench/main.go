// Command bench prints the paper-shaped evaluation tables E1–E8 of
// internal/experiments (see that package for what each one measures).
//
// Usage:
//
//	bench [-e all|e1..e8] [-quick] [-seed N]
//
// System performance — client → server → confidence, layer by layer —
// is measured by benchmark/run.sh (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"maybms/internal/experiments"
)

func main() {
	which := flag.String("e", "all", "experiment to run: all, e1..e8")
	quick := flag.Bool("quick", false, "shrink sweeps for a fast run")
	seed := flag.Int64("seed", 2009, "random seed")
	flag.Parse()

	run := map[string]func(io.Writer, experiments.Options){
		"all": experiments.All,
		"e1":  experiments.E1,
		"e2":  experiments.E2,
		"e3":  experiments.E3,
		"e4":  experiments.E4,
		"e5":  experiments.E5,
		"e6":  experiments.E6,
		"e7":  experiments.E7,
		"e8":  experiments.E8,
	}[*which]
	if run == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
	run(os.Stdout, experiments.Options{Quick: *quick, Seed: *seed})
}
