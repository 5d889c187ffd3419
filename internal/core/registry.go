package core

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The scenario registry: one table naming every experiment the
// reproduction can run. Each entry owns its flags: Bind defines on a
// FlagSet exactly the flags that experiment reads, with their defaults
// and units, and returns the run that reads them once the set is
// parsed. A flag therefore means one thing per experiment, an
// experiment rejects a flag it does not read, and `cherinet list`
// derives each entry's flag names from the FlagSet it binds.
// cmd/cherinet consumes the registry for dispatch, `cherinet list` and
// near-miss suggestions, and adds its one harness flag (-parallel) to
// every FlagSet.

// ScenarioEntry is one registered experiment.
type ScenarioEntry struct {
	// Name is the cherinet subcommand.
	Name string
	// Desc is the one-line description `cherinet list` prints.
	Desc string
	// Bind defines this experiment's flags on fs and returns the run,
	// which writes the report to w using the parsed flag values.
	Bind func(fs *flag.FlagSet) func(w io.Writer) error
}

// Registry lists every runnable experiment, in `cherinet all` order.
var Registry = []ScenarioEntry{
	{
		Name: "fig3",
		Desc: "capability out-of-bounds demonstration (applications escaping their boundaries)",
		Bind: noFlags(func(w io.Writer) error {
			rep, err := RunFig3()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "FIG 3 — applications accessing memory outside their boundaries")
			fmt.Fprintln(w, " ", rep)
			return nil
		}),
	},
	{
		Name: "table1",
		Desc: "capability-integration LoC of the F-Stack port",
		Bind: noFlags(func(w io.Writer) error {
			row, err := RunTable1()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "TABLE I — capability-integration lines in the TCP/IP library")
			fmt.Fprintln(w, " ", row)
			return nil
		}),
	},
	{
		Name: "table2",
		Desc: "TCP bandwidth, Baseline + Scenarios 1-2, both directions (virtual time)",
		Bind: noFlags(func(w io.Writer) error {
			blocks, err := RunTable2()
			if err != nil {
				return err
			}
			fmt.Fprint(w, FormatTable2(blocks))
			return nil
		}),
	},
	ffWriteEntry("fig4", "ff_write() execution time: Scenario 1 vs Baseline", MeasureFig4),
	ffWriteEntry("fig5", "ff_write() execution time: Scenario 2 (uncontended) vs Baseline", MeasureFig5),
	ffWriteEntry("fig6", "ff_write() execution time: Scenario 2 uncontended vs contended", MeasureFig6),
	{
		Name: "scenario3",
		Desc: "future-work split: DPDK in its own cVM, gates on the datapath (bandwidth)",
		Bind: noFlags(func(w io.Writer) error {
			for _, dir := range []Direction{LocalIsServer, LocalIsClient} {
				s, err := NewScenario3(sim.NewVClock())
				if err != nil {
					return err
				}
				res, err := BandwidthPair(s, dir)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "SCENARIO 3 — %s\n", dir)
				for _, r := range res {
					fmt.Fprintf(w, "  %v\n", r)
				}
			}
			return nil
		}),
	},
	{
		Name: "scenario4",
		Desc: "multi-core scaling: sharded stack over RSS queues, goodput vs shard count",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			shards := fs.Int("shards", 4, "max stack shards (swept in powers of two)")
			flows := fs.Int("flows", 8, "concurrent iperf flows")
			dur := fs.Int64("duration", DefaultScenario4Duration, "traffic time per measurement (virtual ns)")
			return func(w io.Writer) error {
				if *shards < 1 {
					return fmt.Errorf("-shards must be at least 1")
				}
				results, err := RunScenario4Sweep(powersOfTwo(*shards), *flows, *dur)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario4(results))
				return nil
			}
		},
	},
	{
		Name: "scenario5",
		Desc: "lossy high-BDP WAN: goodput vs loss and vs BDP, go-back-N vs SACK+WS",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			loss := fs.Float64("loss", 0.01, "max random loss rate (swept from 0); the BDP sweep runs at a quarter of it")
			delay := fs.Int64("delay", 10e6, "one-way delay for the loss sweep (ns)")
			rate := fs.Float64("rate", 100e6, "bottleneck rate (bits/s)")
			cc := bindCC(fs, "the modern stack's controller (empty = reno)")
			dur := fs.Int64("s5duration", DefaultScenario5Duration, "traffic time per point (virtual ns)")
			var obs Scenario5Obs
			fs.StringVar(&obs.TraceDir, "trace", "", "write per-point Chrome trace-event JSON into this directory")
			fs.StringVar(&obs.MetricsDir, "metrics", "", "write per-point metrics timeseries (CSV+JSON) into this directory")
			fs.StringVar(&obs.PcapDir, "pcap", "", "write per-point per-peer libpcap captures under this directory")
			return func(w io.Writer) error {
				losses := []float64{0, *loss / 4, *loss / 2, *loss}
				lossResults, err := RunScenario5LossSweep(losses, *delay, *rate, *cc, *dur, obs)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario5(
					fmt.Sprintf("goodput vs random loss (%.0f Mbit/s bottleneck, %.0f ms RTT)",
						*rate/1e6, float64(2**delay)/1e6), lossResults))
				fmt.Fprintln(w)
				bdpResults, err := RunScenario5BDPSweep(
					[]int64{1e6, 5e6, 20e6, 50e6}, *loss/4, *rate, *cc, *dur, obs)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario5(
					fmt.Sprintf("goodput vs path BDP (%.0f Mbit/s bottleneck, %.2f%% loss)",
						*rate/1e6, *loss/4*100), bdpResults))
				return nil
			}
		},
	},
	{
		Name: "scenario6",
		Desc: "composed: sharded stack over an impaired WAN, paper stack vs shards+SACK",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			shards := fs.Int("shards", 4, "max stack shards (swept in powers of two)")
			flows := fs.Int("flows", 8, "concurrent iperf flows")
			mode := fs.String("mode", "upload", "traffic direction: upload (sharded box sends) or download (peer sends into the cloned listeners)")
			ackRate := fs.Float64("ackrate", 0, "reverse (ACK) channel bottleneck (bits/s; 0 = clean)")
			cc := bindCC(fs, "the modern stacks' controller (empty = reno)")
			dur := fs.Int64("s6duration", DefaultScenario6Duration, "traffic time per point (virtual ns)")
			return func(w io.Writer) error {
				if *shards < 1 {
					return fmt.Errorf("-shards must be at least 1")
				}
				base := Scenario6Config{Congestion: *cc}
				switch *mode {
				case "", "upload":
				case "download":
					base.Download = true
				default:
					return fmt.Errorf("-mode must be upload or download, not %q", *mode)
				}
				if *ackRate > 0 {
					// Squeeze only the ACK channel; propagation stays
					// symmetric.
					base.Rev = &netem.Config{DelayNS: s6DelayNS, RateBps: *ackRate}
				}
				results, err := RunScenario6Sweep(powersOfTwo(*shards), *flows, *dur, base)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario6(results))
				return nil
			}
		},
	},
	{
		Name: "scenario7",
		Desc: "WAN utilization vs congestion control: reno vs cubic across the RTT ladder",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			cc := bindCC(fs, "restricts the sweep to one controller (empty = both)")
			rate := fs.Float64("rate", 100e6, "bottleneck rate (bits/s)")
			dur := fs.Int64("s7duration", DefaultScenario7Duration, "traffic time per point (virtual ns)")
			return func(w io.Writer) error {
				ccs := []string{fstack.CCReno, fstack.CCCubic}
				if *cc != "" {
					ccs = []string{*cc}
				}
				// The paper's BDP ladder: 10/50/100/200 ms RTT.
				results, err := RunScenario7RTTSweep([]int64{5e6, 25e6, 50e6, 100e6}, ccs, *rate, *dur)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario7(results))
				return nil
			}
		},
	},
	{
		Name: "scenario8",
		Desc: "connection churn storm: idle 100k-conn population held while rate-paced short flows churn",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			conns := fs.Int("conns", 100_000, "idle connection population held across the churn")
			rate := fs.Float64("rate", 50_000, "churn rate (flows/s); the sweep runs rate/4, rate/2, rate")
			shards := fs.Int("shards", 4, "stack shards")
			dur := fs.Int64("s8duration", DefaultScenario8Duration, "churn time per point (virtual ns)")
			return func(w io.Writer) error {
				if *shards < 1 {
					return fmt.Errorf("-shards must be at least 1")
				}
				if *conns < 1 {
					return fmt.Errorf("-conns must be at least 1")
				}
				if *rate <= 0 {
					return fmt.Errorf("-rate must be positive")
				}
				rates := []float64{*rate / 4, *rate / 2, *rate}
				results, err := RunScenario8RateSweep(*shards, *conns, rates, *dur)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario8(results))
				return nil
			}
		},
	},
	{
		Name: "scenario9",
		Desc: "request/response tail latency: HTTP/1.1 keep-alive and DNS-shaped UDP, p50/p99/p999 per request",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			proto := fs.String("proto", "", "protocol: http or dns (empty = both)")
			rate := fs.Float64("rate", 20_000, "open-loop request rate (requests/s); the sweep runs rate/4, rate/2, rate")
			conns := fs.Int("conns", 32, "connections of the open-loop sweep; the closed-loop sweep runs conns/4, conns/2, conns")
			loss := fs.Float64("loss", 0.01, "random loss rate of the link")
			delay := fs.Int64("delay", 10e6, "one-way delay of the link (ns)")
			shards := fs.Int("shards", 4, "stack shards")
			dur := fs.Int64("s9duration", DefaultScenario9Duration, "measured time per point (virtual ns)")
			return func(w io.Writer) error {
				protos := []string{"http", "dns"}
				switch *proto {
				case "":
				case "http", "dns":
					protos = []string{*proto}
				default:
					return fmt.Errorf("-proto must be http or dns, not %q", *proto)
				}
				if *shards < 1 {
					return fmt.Errorf("-shards must be at least 1")
				}
				if *conns < 1 {
					return fmt.Errorf("-conns must be at least 1")
				}
				if *rate <= 0 {
					return fmt.Errorf("-rate must be positive")
				}
				link := netem.Config{LossRate: *loss, DelayNS: *delay}
				rates := []float64{*rate / 4, *rate / 2, *rate}
				concs := []int{max(*conns/4, 1), max(*conns/2, 1), *conns}
				for _, p := range protos {
					title := func(kind string) string {
						return fmt.Sprintf("%s %s (%.2f%% loss, %.0f ms RTT)",
							p, kind, *loss*100, float64(2**delay)/1e6)
					}
					open, err := RunScenario9RateSweep(p, *shards, *conns, rates, link, *dur)
					if err != nil {
						return err
					}
					fmt.Fprint(w, FormatScenario9(title("open-loop rate sweep"), open))
					closed, err := RunScenario9ConcurrencySweep(p, *shards, concs, link, *dur)
					if err != nil {
						return err
					}
					fmt.Fprint(w, FormatScenario9(title("closed-loop concurrency sweep"), closed))
				}
				return nil
			}
		},
	},
	{
		Name: "scenario10",
		Desc: "fault storm: injected capability faults, blast radius and time-to-recovery, baseline vs cheri",
		Bind: func(fs *flag.FlagSet) func(io.Writer) error {
			var cfg Scenario10Config
			fs.IntVar(&cfg.Shards, "shards", 4, "stack shards, one compartment+server each")
			fs.IntVar(&cfg.Faults, "faults", 4, "injected capability-fault count")
			fs.Int64Var(&cfg.MTBFNS, "mtbf", 60e6, "mean time between faults (virtual ns)")
			fs.IntVar(&cfg.Conns, "conns", 4, "closed-loop connections per shard")
			fs.Int64Var(&cfg.DurationNS, "s10duration", DefaultScenario10Duration, "measured time (virtual ns)")
			return func(w io.Writer) error {
				if cfg.Shards < 1 {
					return fmt.Errorf("-shards must be at least 1")
				}
				if cfg.Faults < 1 {
					return fmt.Errorf("-faults must be at least 1")
				}
				if cfg.MTBFNS <= 0 {
					return fmt.Errorf("-mtbf must be positive")
				}
				if cfg.Conns < 1 {
					return fmt.Errorf("-conns must be at least 1")
				}
				results, err := RunScenario10Sweep(cfg)
				if err != nil {
					return err
				}
				fmt.Fprint(w, FormatScenario10(results))
				return nil
			}
		},
	},
}

// noFlags binds an experiment that takes no flags.
func noFlags(run func(w io.Writer) error) func(*flag.FlagSet) func(io.Writer) error {
	return func(*flag.FlagSet) func(io.Writer) error { return run }
}

// ffWriteEntry registers one of Figs 4-6: the timed ff_write probe
// flags, measure's latency sets, and their box summaries titled from
// the name and description.
func ffWriteEntry(name, desc string, measure func(FFWriteConfig) ([]LatencySet, error)) ScenarioEntry {
	return ScenarioEntry{Name: name, Desc: desc, Bind: func(fs *flag.FlagSet) func(io.Writer) error {
		var cfg FFWriteConfig
		fs.IntVar(&cfg.Iterations, "iters", 100_000, "timed ff_write iterations (paper: 1e6)")
		fs.Int64Var(&cfg.IntervalNS, "interval", 20_000, "ns between timed writes")
		fs.IntVar(&cfg.Payload, "payload", 1448, "ff_write payload bytes")
		return func(w io.Writer) error {
			sets, err := measure(cfg)
			if err != nil {
				return err
			}
			printBoxes(w, fmt.Sprintf("FIG %s — %s (ns)", strings.TrimPrefix(name, "fig"), desc), sets)
			return nil
		}
	}}
}

// bindCC defines -cc (Scenarios 5-7). An unregistered algorithm fails
// the flag parse, before anything runs.
func bindCC(fs *flag.FlagSet, usage string) *string {
	cc := new(string)
	fs.Func("cc", fmt.Sprintf("congestion control %v: %s", fstack.CongestionAlgos(), usage), func(s string) error {
		if !fstack.ValidCongestion(s) {
			return fmt.Errorf("not a registered algorithm (have %v)", fstack.CongestionAlgos())
		}
		*cc = s
		return nil
	})
	return cc
}

// flagNames lists the flags e defines, in flag.VisitAll (lexical)
// order.
func (e ScenarioEntry) flagNames() []string {
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	e.Bind(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, "-"+f.Name) })
	return names
}

// LookupScenario resolves a registered name.
func LookupScenario(name string) (ScenarioEntry, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return ScenarioEntry{}, false
}

// ScenarioNames lists the registered names in order.
func ScenarioNames() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// FormatScenarioList renders the registry for `cherinet list`.
func FormatScenarioList() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Registered experiments (cherinet <name> [flags]; each also takes -parallel, `cherinet all` runs every one at its defaults):\n")
	for _, e := range Registry {
		flags := strings.Join(e.flagNames(), " ")
		if flags == "" {
			flags = "-"
		}
		fmt.Fprintf(&b, "  %-10s %s\n  %10s   flags: %s\n", e.Name, e.Desc, "", flags)
	}
	return b.String()
}

// SuggestScenarios returns registered names within a small edit
// distance of the (unknown) name, best first — the "did you mean"
// list.
func SuggestScenarios(name string) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	for _, e := range Registry {
		d := editDistance(strings.ToLower(name), e.Name)
		// Accept near misses and prefix matches ("scenario" → all
		// scenarioN entries).
		if d <= 2 || strings.HasPrefix(e.Name, strings.ToLower(name)) {
			if d > 2 {
				d = 3 // prefix-only matches rank after true near misses
			}
			cands = append(cands, cand{e.Name, d})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	var out []string
	for _, c := range cands {
		out = append(out, c.name)
	}
	return out
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// powersOfTwo lists 1, 2, 4, ... up to max.
func powersOfTwo(max int) []int {
	var out []int
	for k := 1; k <= max; k *= 2 {
		out = append(out, k)
	}
	return out
}

// printBoxes renders latency sets as IQR-cleaned box summaries.
func printBoxes(w io.Writer, title string, sets []LatencySet) {
	fmt.Fprintln(w, title)
	for _, s := range sets {
		b := stats.CleanBox(s.Samples)
		fmt.Fprintf(w, "  %-26s %v\n", s.Label, b)
	}
}
