package main

import (
	"fmt"
	"math"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// A workload is one input set the benchmark drives through the
// program's public entry points. Every workload is seedless: its
// inputs are fixed, so a repetition rebuilds the same bed and must
// reproduce the same simulated outputs.
type workload struct {
	name string
	// parallel is the host worker count (core.SetParallelism), capped
	// at the host's CPU count.
	parallel int
	// build constructs the bed on a benchmark-owned clock.
	build func(clk *sim.VClock) (bed, error)
}

// bed is one constructed testbed with the workload's two ways to run it. Each
// bed is single-use, like the iperf endpoints it hosts.
type bed interface {
	testbed() *testbed.Bed
	// runCore drives the bed through the matching core entry point.
	runCore() outcome
	// runTraced drives the bed through the benchmark's traced copy of
	// core's event-driven loop. Its outcome must equal runCore's.
	runTraced(t *tracer) outcome
}

// outcome is what one bed's run produced, as the program reports it.
type outcome struct {
	ops    int // operations attempted: iperf endpoints or offered flows
	failed int // operations that failed (all of them when err != nil)
	err    error
	// mbps is the simulated application payload goodput, summed over
	// the receiving endpoints.
	mbps float64
	// sig formats every simulated output exactly; two runs produced
	// identical outputs iff their sigs are equal.
	sig string
	// extra are the workload's own simulated metrics.
	extra []metric
}

// failAll marks every operation of a run failed, with the reason.
func (o outcome) failAll(err error) outcome {
	o.err, o.failed = err, o.ops
	return o
}

var workloads = []*workload{
	{
		name: "wan-cubic", parallel: 1,
		build: func(clk *sim.VClock) (bed, error) {
			s, err := core.NewScenario7(clk, core.Scenario7Config{CapMode: true, Congestion: fstack.CCCubic})
			return &wanBed{clk: clk, s: s}, err
		},
	},
	{
		name: "conn-churn", parallel: 2,
		build: func(clk *sim.VClock) (bed, error) {
			s, err := core.NewScenario8(clk, churnCfg)
			return &churnBed{clk: clk, s: s}, err
		},
	},
	{
		name: "s2-recv", parallel: 1,
		build: func(clk *sim.VClock) (bed, error) { return buildS2(clk, core.LocalIsServer) },
	},
	{
		name: "s2-send", parallel: 1,
		build: func(clk *sim.VClock) (bed, error) { return buildS2(clk, core.LocalIsClient) },
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wanPort is Scenario 7's iperf port.
const wanPort = uint16(5701)

type wanBed struct {
	clk *sim.VClock
	s   *core.Setup7
}

func (b *wanBed) testbed() *testbed.Bed { return b.s.Bed }

func (b *wanBed) runCore() outcome {
	r, err := core.Scenario7Bandwidth(b.s, core.DefaultScenario7Duration)
	if err != nil {
		return outcome{ops: 2}.failAll(err)
	}
	return wanOutcome(r)
}

// runTraced is Scenario7Bandwidth on the traced loop.
func (b *wanBed) runTraced(t *tracer) outcome {
	s := b.s
	o := outcome{ops: 2}
	cli := iperf.NewClient(testbed.PeerIP(0), wanPort, core.DefaultScenario7Duration)
	t.attach(s.Envs[0].Loop, cli.Step)
	srv := iperf.NewServer(fstack.IPv4Addr{}, wanPort)
	t.attach(s.Peers[0].Env.Loop, srv.Step)
	done := func() bool { return cli.Done() && srv.Done() }
	deadline := core.DefaultScenario7Duration + 8_000e6 + 200*2*s.Link().Config().DelayNS
	if err := t.drive(b.clk, s.Bed, nil, []deadliner{cli, srv}, done, deadline); err != nil {
		return o.failAll(err)
	}
	if err := endpointErr(cli.Err(), srv.Err()); err != nil {
		return o.failAll(err)
	}
	r := core.Scenario7Result{
		CapMode: s.Cfg.CapMode, Congestion: s.Cfg.Congestion, Link: s.Link().Config(),
		Mbps: srv.Report().Mbps(), Fwd: s.Link().Stats(0),
	}
	s.Envs[0].Stk.Lock()
	r.Stats = s.Envs[0].Stk.Stats()
	s.Envs[0].Stk.Unlock()
	return wanOutcome(r)
}

func wanOutcome(r core.Scenario7Result) outcome {
	o := outcome{ops: 2, mbps: r.Mbps, sig: fmt.Sprintf("%+v", r)}
	if limit := r.Link.RateBps / 1e6; !(r.Mbps > 0 && r.Mbps <= limit) {
		return o.failAll(fmt.Errorf("goodput %v Mbit/s outside (0, %v] (the bottleneck rate)", r.Mbps, limit))
	}
	return o
}

// churnCfg is the conn-churn point: Baseline layout, two shards, 100k
// idle conns held, 20k short flows/s for core's default churn phase.
var churnCfg = core.Scenario8Config{
	Shards: 2, Conns: 100_000, Rate: 20_000, DurationNS: core.DefaultScenario8Duration,
}

// Scenario 8's listen layout and churn payload size.
const (
	churnPreloadPort = uint16(5801)
	churnPort        = uint16(5901)
	churnPorts       = 4
	churnBacklog     = 512
	churnPayload     = 64
)

type churnBed struct {
	clk *sim.VClock
	s   *testbed.Bed
}

func (b *churnBed) testbed() *testbed.Bed { return b.s }

func (b *churnBed) runCore() outcome {
	r, err := core.Scenario8Churn(b.s, churnCfg)
	if err != nil {
		return churnOutcome(r).failAll(err)
	}
	return churnOutcome(r)
}

// runTraced is Scenario8Churn on the traced loop, with the preload
// and storm phases tagged on the spans.
func (b *churnBed) runTraced(t *tracer) outcome {
	s, cfg := b.s, churnCfg
	res := core.Scenario8Result{Shards: cfg.Shards, CapMode: cfg.CapMode, Conns: cfg.Conns, Rate: cfg.Rate}
	fail := func(err error) outcome { return churnOutcome(res).failAll(err) }

	srv := churnServer()
	api := t.wrap(s.Sharded.API(), spanAPI)
	apps := []func(now int64){func(now int64) { srv.Step(api, now) }}
	cli, err := churnClient()
	if err != nil {
		return fail(err)
	}
	t.attach(s.Peers[0].Env.Loop, func(api iperf.API, now int64) { cli.Step(api, now) })
	timed := []deadliner{cli, srv}
	failed := func() bool { return cli.Err() != hostos.OK || srv.Err() != hostos.OK }

	t.phase = phasePreload
	segBefore := s.Envs[0].Seg.Used()
	heapBefore := retainedBytes(s)
	preloaded := func() bool { return cli.PreloadDone() || failed() }
	if err := t.drive(b.clk, s, apps, timed, preloaded, 8_000e6); err != nil {
		return fail(err)
	}
	if err := endpointErr(cli.Err(), srv.Err()); err != nil {
		return fail(err)
	}
	res.SegPerConn = float64(s.Envs[0].Seg.Used()-segBefore) / float64(cfg.Conns)
	res.HeapPerConn = float64(int64(retainedBytes(s))-int64(heapBefore)) / float64(cfg.Conns)

	t.phase = phaseStorm
	cli.StartChurn(b.clk.Now())
	churned := func() bool { return failed() || cli.Done() && srv.Served() >= cli.Completed() }
	if err := t.drive(b.clk, s, apps, timed, churned, cfg.DurationNS+8_000e6); err != nil {
		return fail(err)
	}
	if err := endpointErr(cli.Err(), srv.Err()); err != nil {
		return fail(err)
	}
	res.Completed = cli.Completed()
	res.ChurnNS = cli.ChurnNS()
	res.Deferred = cli.Deferred()
	res.ConnectP50NS = cli.Hist.Quantile(0.50)
	res.ConnectP99NS = cli.Hist.Quantile(0.99)
	res.Stats = s.Sharded.Stats()
	return churnOutcome(res)
}

func churnServer() *churn.Server {
	return churn.NewServer(fstack.IPv4Addr{}, churnPreloadPort, churnPort, churnPorts, churnBacklog)
}

func churnClient() (*churn.Client, error) {
	return churn.NewClient(testbed.LocalIP(0), churnPreloadPort, churnPort, churnPorts,
		churnCfg.Conns, churnCfg.Rate, churnCfg.DurationNS)
}

// retainedBytes is Scenario 8's connection-state count: every stack of
// the bed, since both ends of each preloaded pair live in this process.
func retainedBytes(s *testbed.Bed) uint64 {
	var b uint64
	if s.Sharded != nil {
		b += s.Sharded.RetainedBytes()
	}
	for _, e := range s.Envs {
		if e.Stk != nil {
			b += e.Stk.RetainedBytes()
		}
	}
	for _, p := range s.Peers {
		b += p.Env.Stk.RetainedBytes()
	}
	return b
}

func churnOutcome(r core.Scenario8Result) outcome {
	o := outcome{
		ops:    int(r.Completed + r.Deferred),
		failed: int(r.Deferred + r.Stats.SynDrops + r.Stats.AcceptOverflows),
		sig:    fmt.Sprintf("%+v", r),
	}
	if o.ops == 0 {
		o.ops = 1 // a run that offered nothing still attempted the workload
	}
	if r.ChurnNS > 0 {
		vsec := float64(r.ChurnNS) / 1e9
		o.mbps = float64(r.Completed*churnPayload*8) / vsec / 1e6
		o.extra = []metric{
			{"sim_flows_per_vsec", float64(r.Completed) / vsec, "1/s"},
			{"sim_connect_p50_us", float64(r.ConnectP50NS) / 1e3, "us"},
			{"sim_connect_p99_us", float64(r.ConnectP99NS) / 1e3, "us"},
			{"sim_connect_samples", float64(r.Completed), "count"},
		}
	}
	switch {
	case r.Completed == 0:
		o.err = fmt.Errorf("no churn flow completed")
	case r.Deferred+r.Stats.SynDrops+r.Stats.AcceptOverflows > 0:
		o.err = fmt.Errorf("offered flows lost: deferred %d, syn drops %d, accept overflows %d",
			r.Deferred, r.Stats.SynDrops, r.Stats.AcceptOverflows)
	case r.SegPerConn != 0:
		o.err = fmt.Errorf("idle conns hold segment memory: %v B/conn", r.SegPerConn)
	}
	if o.err != nil && o.failed == 0 {
		o.failed = o.ops
	}
	return o
}

// s2Port is the first iperf port of Table II's runs; app i uses s2Port+i.
const s2Port = uint16(5201)

// s2Block is Table II's contended Scenario 2 block.
const s2Block = 4

type s2Bed struct {
	clk *sim.VClock
	s   *testbed.Bed
	dir core.Direction
}

func buildS2(clk *sim.VClock, dir core.Direction) (bed, error) {
	s, err := core.Table2Spec[s2Block].Build(clk)
	return &s2Bed{clk: clk, s: s, dir: dir}, err
}

func (b *s2Bed) testbed() *testbed.Bed { return b.s }

// ops counts a run's iperf endpoints: one per app cVM, one per flow
// on the link partner.
func (b *s2Bed) ops() int { return 2 * len(b.s.Apps) }

func (b *s2Bed) runCore() outcome {
	res, err := core.BandwidthPair(b.s, b.dir)
	if err != nil {
		return outcome{ops: b.ops()}.failAll(err)
	}
	return b.outcome(res)
}

// runTraced is BandwidthPair's Scenario 2 branch on the traced loop:
// the app cVMs step through their gated API views after the loops, and
// the link partner carries every flow in its loop callback.
func (b *s2Bed) runTraced(t *tracer) outcome {
	s := b.s
	o := outcome{ops: b.ops()}
	durationNS := int64(1_000e6) // core's per-measurement traffic time
	var local, peer []endpoint
	var apps []func(now int64)
	for i, g := range s.Apps {
		port := s2Port + uint16(i)
		ep := newEndpoint(b.dir == core.LocalIsServer, testbed.PeerIP(0), port, durationNS)
		api := t.wrap(g, spanGatedAPI)
		apps = append(apps, func(now int64) { ep.Step(api, now) })
		local = append(local, ep)
		peer = append(peer, newEndpoint(b.dir != core.LocalIsServer, testbed.LocalIP(0), port, durationNS))
	}
	papi := t.wrap(s.Peers[0].Env.Loop.Locked(), spanAPI)
	s.Peers[0].Env.Loop.OnLoop = func(now int64) bool {
		for _, ep := range peer {
			t.begin(spanAppStep)
			ep.Step(papi, now)
			t.end()
		}
		return true
	}
	all := append(append([]endpoint(nil), local...), peer...)
	timed := make([]deadliner, len(all))
	for i, ep := range all {
		timed[i] = ep
	}
	done := func() bool {
		for _, ep := range all {
			if !ep.Done() {
				return false
			}
		}
		return true
	}
	if err := t.drive(b.clk, s, apps, timed, done, 4_000e6); err != nil {
		return o.failAll(err)
	}
	var res []core.BWResult
	for i, ep := range local {
		label := fmt.Sprintf("%s %s", s.Apps[i].App.Name, b.dir)
		if errno := ep.Err(); errno != hostos.OK {
			return o.failAll(fmt.Errorf("%s failed: %v", label, errno))
		}
		rep := ep.Report()
		res = append(res, core.BWResult{Label: label, Mbps: rep.Mbps(), Efficiency: rep.Efficiency(1000)})
	}
	return b.outcome(res)
}

func (b *s2Bed) outcome(res []core.BWResult) outcome {
	o := outcome{ops: b.ops(), sig: fmt.Sprintf("%+v", res)}
	col := 0
	if b.dir == core.LocalIsClient {
		col = 1
	}
	paper := core.Table2Spec[s2Block].Paper
	if len(res) != len(paper) {
		return o.failAll(fmt.Errorf("%d endpoints finished, want %d", len(res), len(paper)))
	}
	var errPct float64
	for i, r := range res {
		o.mbps += r.Mbps
		if r.Mbps <= 0 {
			return o.failAll(fmt.Errorf("%s moved no data", r.Label))
		}
		errPct += math.Abs(r.Mbps-paper[i][col]) / paper[i][col] * 100
	}
	if o.mbps > 1000 {
		return o.failAll(fmt.Errorf("endpoints sum to %v Mbit/s, above the 1 Gbit/s line", o.mbps))
	}
	o.extra = []metric{{"sim_paper_err_pct", errPct / float64(len(res)), "%"}}
	return o
}

// endpoint is the method set iperf.Client and iperf.Server share.
type endpoint interface {
	Step(api iperf.API, now int64)
	Done() bool
	Err() hostos.Errno
	Report() iperf.Report
	NextDeadline(now int64) int64
}

// newEndpoint makes a server on port when serve is set, else a client
// toward ip:port running for durationNS.
func newEndpoint(serve bool, ip fstack.IPv4Addr, port uint16, durationNS int64) endpoint {
	if serve {
		return iperf.NewServer(fstack.IPv4Addr{}, port)
	}
	return iperf.NewClient(ip, port, durationNS)
}

// endpointErr reports the first sticky endpoint failure.
func endpointErr(errs ...hostos.Errno) error {
	for _, e := range errs {
		if e != hostos.OK {
			return fmt.Errorf("endpoint failed: %v", e)
		}
	}
	return nil
}
