// Command dpbench runs the reproduction experiment suite (DESIGN.md,
// experiments E-F1 … E-RT) and renders the results as a terminal report, as
// the Markdown body of EXPERIMENTS.md, or as JSON.
//
// Usage:
//
//	dpbench -quick                  # fast pass (seconds)
//	dpbench                         # full pass (under a minute)
//	dpbench -experiment E-T3        # a single experiment
//	dpbench -markdown -o EXPERIMENTS.generated.md
//	dpbench -quick -json            # machine-readable tables
//	dpbench -quick -faults crash-rejoin:0.05,0.5  # tables under fault injection
//	dpbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/dining"
	"repro/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatal("dpbench", err)
	}
}

// run parses args, runs the selected experiments and writes the report to
// stdout (or to the -o file).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dpbench", flag.ContinueOnError)
	cfg := cli.Config{Seed: 20010903} // the paper's arXiv date
	cfg.Register(fs, cli.FlagSeed|cli.FlagWorkers|cli.FlagJSON|cli.FlagProfile|cli.FlagFaults)
	var (
		quick      = fs.Bool("quick", false, "reduced trial counts")
		experiment = fs.String("experiment", "", "run a single experiment by ID (for example E-T3)")
		markdown   = fs.Bool("markdown", false, "emit Markdown instead of aligned text")
		outPath    = fs.String("o", "", "write the report to a file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *markdown && cfg.JSON {
		return fmt.Errorf("-markdown and -json are mutually exclusive")
	}
	stopProfiling, err := cfg.StartProfiling()
	if err != nil {
		return err
	}
	defer stopProfiling()

	ecfg := dining.ExperimentConfig{Quick: *quick, Seed: cfg.Seed, Workers: cfg.Workers, Faults: cfg.Faults}
	var ids []string
	if *experiment != "" {
		ids = append(ids, *experiment)
	}
	start := time.Now()
	tables, err := dining.RunExperiments(ecfg, ids...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	switch {
	case cfg.JSON:
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			return err
		}
	case *markdown:
		intro := fmt.Sprintf("# Experiment results\n\nGenerated by `dpbench` in %s (quick=%t, seed=%d).\n", elapsed.Round(time.Second), *quick, cfg.Seed)
		fmt.Fprint(out, dining.RenderMarkdown(intro, tables))
	default:
		for _, t := range tables {
			fmt.Fprintln(out, t.Text())
		}
		fmt.Fprintf(out, "completed %d experiment(s) in %s\n", len(tables), elapsed.Round(time.Millisecond))
	}
	return stopProfiling()
}
