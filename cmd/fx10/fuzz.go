package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"fx10/internal/difffuzz"
)

// cmdFuzz runs the differential soundness fuzzer: generated programs
// are checked for observed ⊆ exact ⊆ static and cross-algorithm
// agreement, with violating programs delta-debugged to minimal
// reproducers. A non-zero exit reports violations (or, with
// -selftest, the absence of them).
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seeds := fs.String("seeds", "1", "comma-separated base seeds")
	n := fs.Int("n", 100, "programs per base seed")
	budget := fs.Int("budget", 200_000, "exhaustive-exploration state budget per program")
	parallel := fs.Int("parallel", 0, "worker pool width (0 = GOMAXPROCS)")
	minimize := fs.Bool("minimize", true, "delta-debug violating programs to minimal reproducers")
	incremental := fs.Bool("incremental", true, "also check incremental re-analysis (AnalyzeDelta) against scratch on a mutated method")
	runs := fs.Int("runs", 3, "recorded runtime executions per program")
	steps := fs.Int64("steps", 100_000, "instruction budget per recorded execution")
	failures := fs.String("failures", "testdata/fuzz-failures", "directory for reproducer files (written only on violation)")
	selftest := fs.Bool("selftest", false, "fuzz a deliberately unsound analysis; succeeds only if the harness catches it")
	clocked := fs.Bool("clocked", false, "fuzz the clocked corpus: barrier-aware exact relation vs the phase-aware analysis")
	frontends := fs.Bool("frontends", false, "also run the cross-front-end oracle: render each program as X10 and as Go, lower both, require bit-identical reports")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz takes no positional arguments")
	}

	var seedVals []int64
	for _, part := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", part)
		}
		seedVals = append(seedVals, v)
	}

	cfg := difffuzz.Config{
		Seeds:       seedVals,
		N:           *n,
		MaxStates:   *budget,
		Runs:        *runs,
		MaxSteps:    *steps,
		Parallel:    *parallel,
		Incremental: *incremental,
		Minimize:    *minimize,
		FailureDir:  *failures,
		Clocked:     *clocked,
		Frontends:   *frontends,
	}
	if *selftest {
		cfg.Static = difffuzz.UnsoundStatic(difffuzz.PipelineStatic)
	}

	rep, err := difffuzz.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(difffuzz.FormatReport(rep))

	if *selftest {
		if len(rep.Violations) == 0 {
			return fmt.Errorf("selftest: the deliberately unsound analysis was not caught")
		}
		fmt.Printf("selftest: unsound analysis caught (%d violations) — the harness works\n", len(rep.Violations))
		return nil
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("%d soundness violations", len(rep.Violations))
	}
	return nil
}
