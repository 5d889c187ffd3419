// Command perfbench is the repository's benchmark. It drives four
// workloads through the public internal/core entry points the cherinet
// command uses, checks each run's simulated outputs, and reports either
// the end-to-end metrics (--trace 0) or, from a separate traced run,
// the per-layer metrics (--trace 1). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload wan-cubic --seed 1 --seconds 30 --trace 0
//
// See README.md beside this file for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// setupPerRep is how many timed bed constructions precede each
// repetition. Set-up time is the median over all of them, so its
// samples spread over the whole run like the repetitions do.
const setupPerRep = 3

// spansDir is where the traced run writes its spans, one CSV per
// workload, relative to the working directory.
const spansDir = ".bench_build/spans"

type metric struct {
	name  string
	value float64
	unit  string
}

// result is one invocation's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wan-cubic, conn-churn, s2-recv or s2-send")
	seed := fs.Int64("seed", 0, "input seed (>= 0); every workload is seedless, so it changes nothing")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w := lookup(*name)
	switch {
	case w == nil:
		return 2, fmt.Errorf("unknown workload %q", *name)
	case *seed < 0:
		return 2, fmt.Errorf("seed must be >= 0")
	case *seconds <= 0:
		return 2, fmt.Errorf("seconds must be > 0")
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("trace must be 0 or 1")
	}
	par := min(w.parallel, runtime.NumCPU())
	core.SetParallelism(par)
	fmt.Fprintf(out, "workload %s: seedless, the inputs do not depend on --seed %d; host parallelism %d\n", w.name, *seed, par)

	limit := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res = endToEnd(w, limit, out)
	} else {
		res = layers(w, limit, filepath.Join(spansDir, w.name+".csv"), out)
	}
	return 0, writeJSON(out, res)
}

// tally accumulates operation counts and check failures over a run.
type tally struct {
	out               io.Writer
	attempted, failed int
	bad               bool
}

// record counts an outcome, printing why it failed, if it did.
func (t *tally) record(o outcome) {
	t.attempted += o.ops
	t.failed += o.failed
	if o.err != nil {
		t.bad = true
		fmt.Fprintf(t.out, "CHECK FAILED: %v\n", o.err)
	}
}

// mismatch fails a whole outcome whose simulated outputs differ from
// the reference run's.
func (t *tally) mismatch(o outcome, what string) {
	t.failed += o.ops - o.failed
	t.bad = true
	fmt.Fprintf(t.out, "CHECK FAILED: %s\n", what)
}

func (t *tally) result(ms []metric) result {
	return result{correct: !t.bad && t.failed == 0, attempted: max(t.attempted, 1), failed: t.failed, metrics: ms}
}

// withVClock folds the final virtual instant into an outcome's
// signature: identical runs also end at the same instant.
func withVClock(o outcome, clk *sim.VClock) outcome {
	o.sig = fmt.Sprintf("%s vclock=%d", o.sig, clk.Now())
	return o
}

// setupTimes times n bed constructions, each after a forced GC.
func setupTimes(w *workload, n int, tl *tally) []float64 {
	var xs []float64
	for range n {
		runtime.GC()
		t0 := time.Now()
		b, err := w.build(sim.NewVClock())
		xs = append(xs, time.Since(t0).Seconds())
		if err != nil {
			tl.record(outcome{ops: 1}.failAll(fmt.Errorf("build: %w", err)))
		}
		runtime.KeepAlive(b)
	}
	return xs
}

// freshBuild builds a bed for a timed run. The GC before the build
// frees the previous bed, so the process never holds two; the GC after
// it keeps the build's collection work out of the timed run.
func freshBuild(w *workload, clk *sim.VClock) (bed, error) {
	runtime.GC()
	b, err := w.build(clk)
	runtime.GC()
	return b, err
}

// liveHeapMB is the Go heap in use after a forced GC.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// endToEnd repeats the workload through the core entry point, with
// tracing off, until the time limit would be passed, and reports the
// medians over repetitions.
func endToEnd(w *workload, limit time.Duration, out io.Writer) result {
	tl := &tally{out: out}
	var speeds, setups, heaps, goodputs []float64
	var first outcome
	start := time.Now()
	for rep := 0; ; rep++ {
		repStart := time.Now()
		setups = append(setups, setupTimes(w, setupPerRep, tl)...)
		clk := sim.NewVClock()
		b, err := freshBuild(w, clk)
		if err != nil {
			tl.record(outcome{ops: 1}.failAll(fmt.Errorf("build: %w", err)))
			break
		}
		t0 := time.Now()
		o := b.runCore()
		host := time.Since(t0).Seconds()
		heaps = append(heaps, liveHeapMB())
		runtime.KeepAlive(b)
		o = withVClock(o, clk)
		tl.record(o)
		if rep == 0 {
			first = o
		} else if o.sig != first.sig {
			tl.mismatch(o, fmt.Sprintf("repetition %d: simulated outputs differ from repetition 0", rep))
		}
		speeds = append(speeds, float64(clk.Now())/1e9/host)
		goodputs = append(goodputs, o.mbps)
		if time.Since(start)+time.Since(repStart) > limit {
			break
		}
	}
	fmt.Fprintf(out, "%d repetitions, %d timed set-ups; medians over them; vsec_per_hsec per repetition: %.4g\n", len(speeds), len(setups), speeds)
	ms := []metric{
		{"vsec_per_hsec", median(speeds), "s/s"},
		{"setup_s", median(setups), "s"},
		{"live_heap_mb", median(heaps), "MB"},
		{"sim_goodput_mbps", median(goodputs), "Mbit/s"},
	}
	res := tl.result(ms)
	for _, m := range ms {
		printMetric(out, m)
	}
	printMetric(out, metric{"fail_ratio", float64(res.failed) / float64(res.attempted), "ratio"})
	for _, m := range first.extra {
		printMetric(out, m)
	}
	return res
}

// layers makes the traced run. One untraced run through the core entry
// point gives the reference outputs and the exact counters. Then the
// benchmark's traced loop re-drives fresh beds under the CPU profiler
// until the time limit would be passed. Each traced repetition after
// the first follows one more untraced run, so the tracing overhead
// compares speeds taken under the same host conditions.
func layers(w *workload, limit time.Duration, spansPath string, out io.Writer) result {
	tl := &tally{out: out}
	start := time.Now()

	clk := sim.NewVClock()
	b, err := freshBuild(w, clk)
	if err != nil {
		tl.record(outcome{ops: 1}.failAll(fmt.Errorf("build: %w", err)))
		return tl.result(nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	ref := b.runCore()
	refHost := time.Since(t0)
	runtime.ReadMemStats(&m1)
	ref = withVClock(ref, clk)
	tl.record(ref)
	refSpeed := float64(clk.Now()) / float64(refHost)
	ms := counters(b.testbed(), refHost)
	ms = append(ms,
		metric{"runtime.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, "MB"},
		metric{"runtime.gc_cycles", float64(m1.NumGC - m0.NumGC), "count"},
	)
	runtime.KeepAlive(b)

	tr := newTracer()
	var samples []profSample
	untraced, traced := []float64{refSpeed}, []float64(nil)
	reps := 0
	equivalent := true
	for {
		repStart := time.Now()
		if reps > 0 {
			clk := sim.NewVClock()
			b, err := freshBuild(w, clk)
			if err != nil {
				tl.record(outcome{ops: 1}.failAll(fmt.Errorf("build: %w", err)))
				break
			}
			t0 := time.Now()
			o := b.runCore()
			h := time.Since(t0)
			o = withVClock(o, clk)
			tl.record(o)
			if o.sig != ref.sig {
				tl.mismatch(o, "untraced repetition differs from the first")
				break
			}
			untraced = append(untraced, float64(clk.Now())/float64(h))
		}
		clk := sim.NewVClock()
		b, err := freshBuild(w, clk)
		if err != nil {
			tl.record(outcome{ops: 1}.failAll(fmt.Errorf("build: %w", err)))
			break
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			tl.record(outcome{ops: 1}.failAll(err))
			break
		}
		t0 := time.Now()
		o := b.runTraced(tr)
		h := time.Since(t0)
		pprof.StopCPUProfile()
		o = withVClock(o, clk)
		tl.record(o)
		if o.sig != ref.sig {
			equivalent = false
			tl.mismatch(o, fmt.Sprintf("traced run differs from the core entry point; span metrics withheld\n  core:   %s\n  traced: %s", ref.sig, o.sig))
			break
		}
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			tl.record(outcome{ops: 1}.failAll(err))
			break
		}
		samples = append(samples, s...)
		traced = append(traced, float64(clk.Now())/float64(h))
		reps++
		if time.Since(start)+time.Since(repStart) > limit {
			break
		}
	}
	if err := tr.writeSpans(spansPath); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
	} else {
		fmt.Fprintf(out, "%d spans written to %s (%d more not kept; totals cover all)\n", len(tr.spans), spansPath, tr.dropped)
	}
	if equivalent && reps > 0 {
		ms = append(ms, spanMetrics(tr, reps)...)
		ms = append(ms, profileMetrics(attribute(samples))...)
		ms = append(ms, metric{"trace.speed_ratio", median(traced) / median(untraced), "ratio"})
		fmt.Fprintf(out, "%d traced repetition(s); span times and calls are per repetition\n", reps)
		fmt.Fprintln(out, "sync.cpu_share and maps.cpu_share classify samples by leaf frame; they overlap the module shares")
	}
	for _, m := range ms {
		printMetric(out, m)
	}
	return tl.result(ms)
}

// counters reads the exact counters of a finished bed.
func counters(b *testbed.Bed, host time.Duration) []metric {
	var rx, tx, missed, burst, queue uint64
	var st fstack.StackStats
	for _, e := range b.Envs {
		for _, d := range e.Devs {
			s := d.Stats()
			rx, tx, missed = rx+s.IPackets, tx+s.OPackets, missed+s.IMissed
		}
		switch {
		case e.Sharded != nil:
			st.Add(e.Sharded.Stats())
		case e.Stk != nil:
			e.Stk.Lock()
			st.Add(e.Stk.Stats())
			e.Stk.Unlock()
		}
	}
	for _, l := range b.Links {
		if l == nil {
			continue
		}
		for dir := range 2 {
			s := l.Stats(dir)
			burst, queue = burst+s.LostBurst, queue+s.DroppedQueue
		}
	}
	var crossings uint64
	if b.Local.IV != nil {
		crossings = b.Local.IV.Crossings.Load()
	}
	return []metric{
		{"dpdk.rx_pkts", float64(rx), "count"},
		{"dpdk.tx_pkts", float64(tx), "count"},
		{"dpdk.imissed", float64(missed), "count"},
		{"netem.lost_burst", float64(burst), "count"},
		{"netem.dropped_queue", float64(queue), "count"},
		{"fstack.retransmit", float64(st.Retransmit), "count"},
		{"fstack.rx_dropped", float64(st.RxDropped), "count"},
		{"fstack.syn_drops", float64(st.SynDrops), "count"},
		{"fstack.accept_overflows", float64(st.AcceptOverflows), "count"},
		{"fstack.retained_mb", float64(retainedBytes(b)) / 1e6, "MB"},
		{"intravisor.crossings", float64(crossings), "count"},
		{"host_ns_per_frame", float64(host) / float64(max(rx+tx, 1)), "ns"},
	}
}

// spanMetrics turns the tracer's totals into per-repetition metrics.
func spanMetrics(t *tracer, reps int) []metric {
	var ms []metric
	for k := range nSpans {
		ms = append(ms,
			metric{spanNames[k] + ".self_s", float64(t.selfNS[k]) / 1e9 / float64(reps), "s"},
			metric{spanNames[k] + ".calls", float64(t.calls[k]) / float64(reps), "count"},
		)
	}
	return append(ms,
		metric{"core.active_ratio", ratio(t.active, t.iters), "ratio"},
		metric{"fstack.epoll_wait.hit_ratio", ratio(t.waitHits, t.waits), "ratio"},
		metric{"fstack.api.eagain_ratio", ratio(t.eagain[spanAPI], t.calls[spanAPI]), "ratio"},
		metric{"intravisor.gated_api.eagain_ratio", ratio(t.eagain[spanGatedAPI], t.calls[spanGatedAPI]), "ratio"},
	)
}

// profileMetrics reports each layer's share of the CPU samples.
func profileMetrics(a attribution) []metric {
	var ms []metric
	for _, m := range layerModules {
		ms = append(ms, metric{m + ".cpu_share", a.share(a.module[m]), "share"})
	}
	for _, c := range crossCutting {
		ms = append(ms, metric{c + ".cpu_share", a.share(a.leaf[c]), "share"})
	}
	return append(ms, metric{"profile.samples", float64(a.total), "count"})
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printMetric(out io.Writer, m metric) {
	fmt.Fprintf(out, "  %-38s %16.6g %s\n", m.name, m.value, m.unit)
}

func writeJSON(out io.Writer, r result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		doc.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
