// Command cherinet regenerates the tables and figures of "Enabling
// Security on the Edge: A CHERI Compartmentalized Network Stack"
// (DATE 2025) on the simulated Morello/CheriBSD testbed, plus the
// post-paper scenarios built on the declarative testbed layer.
//
// Usage:
//
//	cherinet list              # print the experiment registry and each one's flags
//	cherinet <name> [flags]    # run one experiment (see `cherinet list`)
//	cherinet all [-parallel N] # run every registered experiment at its defaults
//
// Experiments come from internal/core's scenario registry; an unknown
// name suggests the nearest registered ones. Each experiment defines
// its own flags, with its own defaults and units: -rate is bits/s for
// scenario5 and scenario7, flows/s for scenario8 and requests/s for
// scenario9. A flag the experiment does not read is an error.
//
// The harness adds one flag to every experiment: -parallel (default
// GOMAXPROCS) sets how many host workers a scenario's sweep cells —
// and, inside a sharded bed, its stack shards — run on. Every report is
// byte-identical at any value; -parallel 1 restores fully sequential
// execution.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: cherinet {list|all|%s} [flags]\n",
		strings.Join(core.ScenarioNames(), "|"))
	fmt.Fprintf(os.Stderr, "run `cherinet list` for descriptions and per-experiment flags\n")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "list" {
		fmt.Print(core.FormatScenarioList())
		return
	}

	entries := core.Registry
	if cmd != "all" {
		e, ok := core.LookupScenario(cmd)
		if !ok {
			fmt.Fprintf(os.Stderr, "cherinet: unknown experiment %q\n", cmd)
			if sugg := core.SuggestScenarios(cmd); len(sugg) > 0 {
				fmt.Fprintf(os.Stderr, "did you mean: %s?\n", strings.Join(sugg, ", "))
			}
			fmt.Fprintf(os.Stderr, "run `cherinet list` for the registry\n")
			os.Exit(2)
		}
		entries = []core.ScenarioEntry{e}
	}

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "host workers for sweep cells and shard stepping (1 = sequential; output is identical at any value)")
	runs := make([]func(w io.Writer) error, len(entries))
	for i, e := range entries {
		efs := fs
		if cmd == "all" {
			// Each experiment runs at its own defaults.
			efs = flag.NewFlagSet(e.Name, flag.ContinueOnError)
		}
		runs[i] = e.Bind(efs)
	}
	fs.Parse(os.Args[2:])
	core.SetParallelism(*parallel)

	for i, run := range runs {
		if err := run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cherinet %s: %v\n", entries[i].Name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
