package core

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/faultplane"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Scenario 10 — fault storm: blast radius and time-to-recovery. The
// paper's isolation argument is spatial (a compartment cannot read its
// neighbor's memory); this scenario measures the temporal half: when a
// compartment faults mid-run, how much of the service dies with it and
// for how long. The layout is a horizontally sharded HTTP service — K
// compartments, each a full stack on its own NIC port with its own
// load-generating peer — under a seeded Poisson schedule of injected
// capability faults aimed at shard 0, with the Intravisor supervisor
// restarting trapped compartments under exponential backoff.
//
// The modes differ exactly where the paper says they should: in
// capability mode each shard is its own cVM, so a fault traps one
// compartment and the supervisor restarts one stack while the siblings
// serve on; in Baseline the stack is one monolithic process, so the
// same fault takes every shard down (RestartSpec.FateSharing) and the
// whole service restarts. The report tabulates the goodput dip, the
// surviving shards' dip (the blast radius), requests lost, connection
// resets, restarts and give-ups, and per-fault time-to-recovery (fault
// instant to the faulted shard's first completed request).

const (
	// The service: one HTTP/1.1 keep-alive server per shard on the
	// scenario-9 request plane, driven closed-loop by resilient clients.
	s10Port      = uint16(8080)
	s10Backlog   = 128
	s10BufBytes  = 32 << 10
	s10SynCache  = 1024
	s10RespBytes = 1200

	// Environment sizing: every shard carries a full stack (and, in
	// capability mode, its own cVM window), so the machine's tagged
	// memory scales with the shard count.
	s10PerShardMem = uint64(20 << 20)
	s10BaseMem     = uint64(24 << 20)

	// s10Seed fixes the fault-arrival draw; the schedule is materialized
	// once, up front, and replayed identically every run.
	s10Seed = 10
	// s10FaultStartNS keeps the storm clear of connection establishment;
	// s10FaultWindow bounds it to the measured phase's first 4/5, so
	// every fault can observe a recovery before the clients drain.
	s10FaultStartNS = int64(60e6)

	// The supervisor policy: fast enough that MTTR is dominated by the
	// modeled recovery work, slow enough that backoff escalation across
	// repeated faults is visible in the per-fault MTTR column.
	s10BackoffNS    = int64(8e6)
	s10MaxBackoffNS = int64(32e6)
	s10MaxRetries   = 32

	// s10TimeoutNS is the clients' request timeout: a crashed stack is
	// silent, so a fully ACKed request needs an application clock to
	// notice the outage (app.HTTPClient.TimeoutNS).
	s10TimeoutNS = int64(50e6)
)

// DefaultScenario10Duration is the measured phase's virtual length.
const DefaultScenario10Duration = int64(600e6)

// Scenario10Config parameterizes one fault-storm point.
type Scenario10Config struct {
	// Shards is the compartment count: one stack + HTTP server per
	// shard, each on its own NIC port with its own peer.
	Shards int
	// CapMode runs every shard in its own cVM (fault contained); false
	// is the Baseline monolith (fault fate-shares across all shards).
	CapMode bool
	// Faults caps the injected capability-fault count; 0 is a clean run.
	Faults int
	// MTBFNS is the mean time between faults (exponential gaps).
	MTBFNS int64
	// Conns is the closed-loop keep-alive connection count per shard.
	Conns int
	// RespBytes is the HTTP response body size (0 = 1200).
	RespBytes int
	// DurationNS is the measured phase's virtual length.
	DurationNS int64
	// Obs selects the observability instruments wired into the bed.
	Obs testbed.ObsSpec
}

func (c *Scenario10Config) applyDefaults() {
	if c.RespBytes == 0 {
		c.RespBytes = 1200
	}
	if c.DurationNS == 0 {
		c.DurationNS = DefaultScenario10Duration
	}
}

// s10FaultTimes materializes the storm: a seeded Poisson arrival
// process, truncated to the configured count and to the window in which
// a recovery is still observable. Pure — NewScenario10 embeds it in the
// spec and Scenario10Run re-derives it for the MTTR probe.
func s10FaultTimes(cfg Scenario10Config) []int64 {
	if cfg.Faults <= 0 || cfg.MTBFNS <= 0 {
		return nil
	}
	end := s10FaultStartNS + cfg.DurationNS*4/5
	times := faultplane.ExpSchedule(s10Seed, cfg.MTBFNS, s10FaultStartNS, end)
	if len(times) > cfg.Faults {
		times = times[:cfg.Faults]
	}
	return times
}

// s10Tuning is the scenario-9 request-plane stack configuration.
func s10Tuning() *fstack.TCPTuning {
	return &fstack.TCPTuning{
		SACK:         true,
		SndBufBytes:  s10BufBytes,
		RcvBufBytes:  s10BufBytes,
		LazyBuffers:  true,
		SynCacheSize: s10SynCache,
	}
}

// NewScenario10 builds the sharded-service layout: K compartments
// ("shard0".."shardK-1"), each a plain single-queue stack on its own
// port, K peers as per-shard load generators, and — when the config
// declares faults — the capability-fault schedule against shard0 plus
// the supervisor's restart policy.
func NewScenario10(clk hostos.Clock, cfg Scenario10Config) (*testbed.Bed, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 10 needs at least one shard")
	}
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("core: scenario 10 needs at least one connection per shard")
	}
	if cfg.Faults > 0 && cfg.MTBFNS <= 0 {
		return nil, fmt.Errorf("core: scenario 10 faults need a positive MTBF")
	}
	cfg.applyDefaults()
	comps := make([]testbed.CompartmentSpec, cfg.Shards)
	peers := make([]testbed.PeerSpec, cfg.Shards)
	for i := range comps {
		comps[i] = testbed.CompartmentSpec{
			Name: fmt.Sprintf("shard%d", i),
			CVM:  cfg.CapMode,
			Ifs:  []testbed.IfSpec{{Port: i}},
			Stack: testbed.StackSpec{
				Tuning: s10Tuning(),
			},
		}
		peers[i] = testbed.PeerSpec{
			Port:  i,
			Stack: testbed.StackSpec{Tuning: s10Tuning()},
		}
	}
	spec := testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name:     "morello",
			MemBytes: s10BaseMem + uint64(cfg.Shards)*s10PerShardMem,
			Ports:    cfg.Shards,
			CapDMA:   cfg.CapMode,
		},
		Compartments: comps,
		Peers:        peers,
		Obs:          cfg.Obs,
	}
	if times := s10FaultTimes(cfg); len(times) > 0 {
		spec.Faults = testbed.FaultSpec{
			CapFaults: []testbed.CapFaultSpec{{Env: "shard0", At: times}},
			Restart: testbed.RestartSpec{
				BackoffNS:    s10BackoffNS,
				MaxBackoffNS: s10MaxBackoffNS,
				MaxRetries:   s10MaxRetries,
				// Baseline: one monolithic stack process — any fault
				// takes every shard down with it.
				FateSharing: !cfg.CapMode,
			},
		}
	}
	return testbed.Build(spec)
}

// Scenario10Result is one measured fault-storm point.
type Scenario10Result struct {
	Shards  int
	CapMode bool
	Faults  int // faults actually injected
	MTBFNS  int64
	Conns   int

	// Issued / Completed sum over every shard's client; Lost counts
	// requests abandoned on reset or timed-out connections, Resets the
	// connection re-establishments.
	Issued    uint64
	Completed uint64
	Lost      uint64
	Resets    uint64
	// Restarts / GiveUps are the supervisor's counters.
	Restarts int
	GiveUps  int
	// FaultedDone is the targeted shard's completed requests;
	// OtherMinDone/OtherMaxDone bound the surviving shards' (the blast
	// radius probe — in capability mode they should not dip).
	FaultedDone  uint64
	OtherMinDone uint64
	OtherMaxDone uint64
	// Recovered counts faults with an observed recovery; MTTRMeanNS and
	// MTTRMaxNS summarize fault instant -> first completed request on
	// the faulted shard.
	Recovered  int
	MTTRMeanNS int64
	MTTRMaxNS  int64
	// P50NS / P99NS are per-request latency quantiles merged across
	// every shard's client (outages land in the tail).
	P50NS int64
	P99NS int64
	// RunNS is the longest client's measured phase.
	RunNS int64
}

// CompletedPerSec is the achieved request completion rate.
func (r Scenario10Result) CompletedPerSec() float64 {
	if r.RunNS <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.RunNS) / 1e9)
}

// Scenario10Run drives one point on a built bed.
func Scenario10Run(s *testbed.Bed, cfg Scenario10Config) (res Scenario10Result, err error) {
	clk, ok := s.Clk.(*sim.VClock)
	if !ok {
		return res, fmt.Errorf("core: scenario 10 runs need the virtual clock")
	}
	cfg.applyDefaults()
	times := s10FaultTimes(cfg)
	res = Scenario10Result{
		Shards: cfg.Shards, CapMode: cfg.CapMode,
		Faults: len(times), MTBFNS: cfg.MTBFNS, Conns: cfg.Conns,
	}

	// One HTTP server per shard, stepped inside its compartment's loop.
	// The supervisor's restart hook re-runs the crashed shard's
	// application setup — close stale fds, listen again — exactly what
	// the restarted compartment's main() would do.
	srvs := make([]*app.HTTPServer, len(s.Envs))
	apis := make([]fstack.LockedAPI, len(s.Envs))
	for i, env := range s.Envs {
		srv := app.NewHTTPServer(fstack.IPv4Addr{}, s10Port, s10Backlog, cfg.RespBytes)
		api := env.Loop.Locked()
		srvs[i], apis[i] = srv, api
		env.Loop.OnLoop = func(now int64) bool { srv.Step(api, now); return true }
	}
	s.RestartHook = func(e *Env, now int64) {
		for i, env := range s.Envs {
			if env == e {
				srvs[i].Restart(apis[i])
			}
		}
	}

	// One resilient closed-loop client per shard on that shard's peer:
	// a reset connection counts its outstanding requests lost and
	// reconnects; a silently dead server is caught by the request
	// timeout.
	clis := make([]*app.HTTPClient, len(s.Peers))
	for i, p := range s.Peers {
		cli, cerr := app.NewHTTPClient(localIP(i), s10Port, cfg.Conns, nil, 0, cfg.DurationNS)
		if cerr != nil {
			return res, cerr
		}
		cli.Resilient = true
		cli.TimeoutNS = s10TimeoutNS
		papi := p.Env.Loop.Locked()
		p.Env.Loop.OnLoop = func(now int64) bool { cli.Step(papi, now); return true }
		clis[i] = cli
	}

	// The MTTR probe rides the faulted shard's completion stream: each
	// fault's recovery instant is the first completion of a request
	// issued strictly after it — responses already in flight at the
	// crash still land moments later and prove nothing, but a
	// post-fault request needs the restarted shard to answer. A burst
	// of faults with no such completion between them recovers at one
	// instant: the outage spanned them all.
	var mttr []int64
	if len(times) > 0 {
		k := 0
		clis[0].OnComplete = func(now, issued int64) {
			for k < len(times) && times[k] < issued {
				mttr = append(mttr, now-times[k])
				k++
			}
		}
	}

	steppers := []func(now int64){s.FaultStep}
	var timed []deadliner
	for _, srv := range srvs {
		timed = append(timed, srv)
	}
	for _, cli := range clis {
		timed = append(timed, cli)
	}
	done := func() bool {
		for _, srv := range srvs {
			if srv.Err() != hostos.OK {
				return true
			}
		}
		for _, cli := range clis {
			if !cli.Done() && cli.Err() == hostos.OK {
				return false
			}
		}
		return true
	}
	// Budget: the measured phase plus recovery slack — every fault can
	// cost a timeout plus a capped backoff before its shard serves
	// again, then the drain.
	slack := int64(2_000e6) + int64(len(times))*(s10TimeoutNS+s10MaxBackoffNS)
	if err = runVirtualUntil(clk, s, steppers, timed, done, cfg.DurationNS+slack); err != nil {
		return res, err
	}
	for i, srv := range srvs {
		if errno := srv.Err(); errno != hostos.OK {
			return res, fmt.Errorf("core: scenario 10 shard %d server failed: %v", i, errno)
		}
	}
	var merged stats.Histogram
	for i, cli := range clis {
		if errno := cli.Err(); errno != hostos.OK {
			return res, fmt.Errorf("core: scenario 10 shard %d client failed: %v", i, errno)
		}
		res.Issued += cli.Issued()
		res.Completed += cli.Completed()
		res.Lost += cli.Lost()
		res.Resets += cli.Resets()
		if cli.RunNS() > res.RunNS {
			res.RunNS = cli.RunNS()
		}
		merged.Merge(&cli.Hist)
		done := cli.Completed()
		if i == 0 {
			res.FaultedDone = done
		} else {
			if res.OtherMinDone == 0 || done < res.OtherMinDone {
				res.OtherMinDone = done
			}
			if done > res.OtherMaxDone {
				res.OtherMaxDone = done
			}
		}
	}
	res.P50NS = merged.Quantile(0.50)
	res.P99NS = merged.Quantile(0.99)
	if s.Super != nil {
		res.Restarts = s.Super.Restarts
		res.GiveUps = s.Super.GiveUps
	}
	res.Recovered = len(mttr)
	for _, d := range mttr {
		res.MTTRMeanNS += d
		if d > res.MTTRMaxNS {
			res.MTTRMaxNS = d
		}
	}
	if len(mttr) > 0 {
		res.MTTRMeanNS /= int64(len(mttr))
	}
	if err = s.CloseObs(); err != nil {
		return res, err
	}
	return res, nil
}

// RunScenario10 measures one configuration on a fresh virtual testbed.
func RunScenario10(cfg Scenario10Config) (Scenario10Result, error) {
	s, err := NewScenario10(sim.NewVClock(), cfg)
	if err != nil {
		return Scenario10Result{}, err
	}
	return Scenario10Run(s, cfg)
}

// runScenario10Cells runs the four-cell grid — {baseline, cheri} x
// {clean, storm} — on at most parallelism workers. The clean cells are
// the dip references for the matching storm cells.
func runScenario10Cells(parallelism int, cfg Scenario10Config) ([]Scenario10Result, error) {
	var cells []Scenario10Config
	for _, capMode := range []bool{false, true} {
		for _, faults := range []int{0, cfg.Faults} {
			cell := cfg
			cell.CapMode = capMode
			cell.Faults = faults
			cells = append(cells, cell)
		}
	}
	return sweep(parallelism, cells, RunScenario10, func(cfg Scenario10Config) string {
		return fmt.Sprintf("cap=%v faults=%d", cfg.CapMode, cfg.Faults)
	})
}

// RunScenario10Sweep measures the four-cell grid.
func RunScenario10Sweep(cfg Scenario10Config) ([]Scenario10Result, error) {
	return runScenario10Cells(Parallelism(), cfg)
}

// FormatScenario10 renders the grid: each storm row's dip columns are
// computed against the latest clean row of the same mode — total
// goodput dip, and the worst surviving shard's dip (the blast radius).
func FormatScenario10(results []Scenario10Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 10 — fault storm: blast radius and time-to-recovery\n")
	if len(results) > 0 {
		r := results[0]
		fmt.Fprintf(&b, "(%d shards, one compartment+server per shard, closed-loop ×%d per shard, cap faults at shard0, backoff %d..%d ms)\n",
			r.Shards, r.Conns, s10BackoffNS/1e6, s10MaxBackoffNS/1e6)
	}
	fmt.Fprintf(&b, "  %-9s %-6s %8s %6s %7s %5s %6s %8s %7s %16s %8s\n",
		"Mode", "Storm", "Done/s", "dip%", "blast%", "lost", "resets", "restarts", "giveups", "MTTR(ms) avg/max", "p99(ms)")
	clean := map[bool]Scenario10Result{}
	for _, r := range results {
		storm := "clean"
		if r.Faults > 0 {
			storm = fmt.Sprintf("%dF", r.Faults)
		} else {
			clean[r.CapMode] = r
		}
		dip, blast := "-", "-"
		if ref, ok := clean[r.CapMode]; ok && r.Faults > 0 && ref.Completed > 0 {
			dip = fmt.Sprintf("%.1f", (1-float64(r.Completed)/float64(ref.Completed))*100)
			if ref.OtherMinDone > 0 {
				blast = fmt.Sprintf("%.1f", (1-float64(r.OtherMinDone)/float64(ref.OtherMinDone))*100)
			}
		}
		mttr := "-"
		if r.Recovered > 0 {
			mttr = fmt.Sprintf("%.1f/%.1f", float64(r.MTTRMeanNS)/1e6, float64(r.MTTRMaxNS)/1e6)
		}
		fmt.Fprintf(&b, "  %-9s %-6s %8.0f %6s %7s %5d %6d %8d %7d %16s %8.2f\n",
			modeName(r.CapMode), storm, r.CompletedPerSec(), dip, blast,
			r.Lost, r.Resets, r.Restarts, r.GiveUps, mttr, float64(r.P99NS)/1e6)
	}
	return b.String()
}
