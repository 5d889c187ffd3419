package core

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Scenario 9 — request/response tail latency. Every other workload
// metric is bulk goodput; production traffic is RPC-shaped, many small
// exchanges where per-request p99 is the figure of merit. The workload
// is internal/app's two protocol pairs: an HTTP/1.1-style keep-alive
// exchange over TCP and a DNS-shaped query/answer over UDP, each
// driven either open-loop (offered rate swept, queueing shows up in
// the tail) or closed-loop (concurrency swept, each slot back-to-
// back). The server runs on the sharded box, baseline or capability
// mode; the client runs one worker per server shard on the peer, with
// source ports engineered through the device's steering oracle so
// worker w's flows land on shard w — per-worker latency histograms are
// merged across shards for the report, extending the paper's
// gate-crossing latency story (Figs 4-6) to realistic traffic.

const (
	// The scenario-4/8 fast multi-queue port: the application plane,
	// not the wire, is the variable under test.
	s9LineRate    = 4e9
	s9RxFifoBytes = 512 << 10
	s9RingSize    = 256

	// s9HTTPPort / s9DNSPort are the server's listen ports.
	s9HTTPPort = uint16(8080)
	s9DNSPort  = uint16(5353)
	// s9Backlog is the HTTP listener's accept-queue bound.
	s9Backlog = 512

	// s9BufBytes sizes socket buffers: a few pipelined responses fit,
	// but an overloaded open-loop point still backpressures into the
	// client's tail instead of buffering without bound.
	s9BufBytes = 32 << 10
	// s9SynCache bounds each shard's half-open cache.
	s9SynCache = 1024

	// Environment sizing, as in Scenario 8.
	s9SegSize  = 48 << 20
	s9CVMMem   = 56 << 20
	s9MemBytes = 160 << 20
	s9PoolBufs = 3072

	// s9SportBase is where the client workers' managed source-port walk
	// starts (the steering-oracle engineering picks from here up).
	s9SportBase = uint16(20000)
	// s9Seed fixes the impairment pipeline's PRNG.
	s9Seed = 9
	// s9RTOMin raises the retransmission floor when the link carries
	// ms-scale delay, as Scenario 5 does on WAN paths.
	s9RTOMin = int64(200e6)
	// s9MaxTries is the DNS client's total attempt budget per query.
	s9MaxTries = 3
)

// Scenario9Config parameterizes one request/response point.
type Scenario9Config struct {
	// Proto selects the exchange: "http" (TCP keep-alive) or "dns"
	// (UDP query/answer).
	Proto string
	// Shards is the server-side stack shard / NIC queue-pair count,
	// and the client worker count.
	Shards int
	// CapMode runs the server stack inside a cVM with capability DMA.
	CapMode bool
	// Rate, when positive, drives open-loop at that many requests per
	// second across all workers; 0 drives closed-loop.
	Rate float64
	// Conns is the HTTP keep-alive connection count (the concurrency,
	// closed-loop) or the DNS closed-loop outstanding-query count.
	Conns int
	// RespBytes is the HTTP response body size (0 = 1200).
	RespBytes int
	// Link, when non-zero, impairs the client-server path (loss,
	// delay; seeded for determinism).
	Link netem.Config
	// DurationNS is the measured phase's virtual length.
	DurationNS int64
	// TimeoutNS is the DNS retry timeout (0 = derived from the link
	// delay).
	TimeoutNS int64
	// Obs selects the observability instruments wired into the bed.
	// The zero value keeps the run byte-identical to an uninstrumented
	// one.
	Obs testbed.ObsSpec
}

func (c *Scenario9Config) applyDefaults() {
	if c.RespBytes == 0 {
		c.RespBytes = 1200
	}
	if c.TimeoutNS == 0 {
		c.TimeoutNS = 200e6 + 8*c.Link.DelayNS
	}
}

// s9Tuning is the request-plane stack configuration: modern loss
// recovery (small exchanges cannot afford go-back-N under impairment),
// sized buffers, lazy backing, a bounded SYN cache.
func s9Tuning() *fstack.TCPTuning {
	return &fstack.TCPTuning{
		SACK:         true,
		SndBufBytes:  s9BufBytes,
		RcvBufBytes:  s9BufBytes,
		LazyBuffers:  true,
		SynCacheSize: s9SynCache,
	}
}

// NewScenario9 builds the RPC layout: a sharded server box (process or
// cVM) on a fast RSS port, one peer as the load generator, optionally
// joined by an impairment pipeline.
func NewScenario9(clk hostos.Clock, cfg Scenario9Config) (*testbed.Bed, error) {
	if cfg.Proto != "http" && cfg.Proto != "dns" {
		return nil, fmt.Errorf("core: scenario 9 proto must be http or dns, not %q", cfg.Proto)
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 9 needs at least one shard")
	}
	if cfg.Conns < 1 {
		return nil, fmt.Errorf("core: scenario 9 needs at least one connection")
	}
	cfg.applyDefaults()
	stack := testbed.StackSpec{
		Shards: cfg.Shards, RingSize: s9RingSize, Tuning: s9Tuning(),
	}
	peer := testbed.PeerSpec{
		Port: 0, LineRateBps: s9LineRate,
		SegBytes: s9SegSize, PoolBufs: s9PoolBufs,
		Stack: testbed.StackSpec{Tuning: s9Tuning()},
	}
	if cfg.Link != (netem.Config{}) {
		link := cfg.Link
		if link.Seed == 0 {
			link.Seed = s9Seed
		}
		peer.Link = testbed.SymmetricLink(link)
	}
	if cfg.Link.DelayNS >= 1e6 {
		// ms-scale RTTs: raise the RTO floor on both ends so queueing
		// jitter cannot fire spurious retransmissions (DESIGN.md §7).
		stack.RTOMinNS = s9RTOMin
		peer.Stack.RTOMinNS = s9RTOMin
	}
	return testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", MemBytes: s9MemBytes, Ports: 1,
			LineRateBps: s9LineRate, RxFifoBytes: s9RxFifoBytes,
			CapDMA: cfg.CapMode,
		},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: "s9", CVM: cfg.CapMode, CVMName: "cvm1",
				CVMBytes: s9CVMMem, SegBytes: s9SegSize,
				PoolBufs: s9PoolBufs, PoolName: "s9-pkt",
				Ifs:   []testbed.IfSpec{{Port: 0}},
				Stack: stack,
			},
		},
		Peers: []testbed.PeerSpec{peer},
		Obs:   cfg.Obs,
	})
}

// Scenario9Result is one measured request/response point.
type Scenario9Result struct {
	Proto   string
	Shards  int
	CapMode bool
	Rate    float64 // offered rate (open-loop); 0 = closed-loop
	Conns   int

	// Issued / Completed are requests sent and responses fully
	// received, summed over the workers; RunNS the longest worker's
	// measured phase.
	Issued    uint64
	Completed uint64
	RunNS     int64
	// Deferred counts open-loop pace slots skipped at the outstanding
	// cap (the load the client could not offer).
	Deferred uint64
	// Timeouts / Failed are DNS expirations and abandoned queries.
	Timeouts uint64
	Failed   uint64
	// P50NS/P99NS/P999NS are per-request latency quantiles, merged
	// across the workers (one per server shard).
	P50NS  int64
	P99NS  int64
	P999NS int64
	// Stats are the server shards' aggregated counters.
	Stats fstack.StackStats
	// Obs carries the run's instruments when cfg.Obs enabled them.
	Obs *obs.Obs
}

// CompletedPerSec is the achieved request completion rate.
func (r Scenario9Result) CompletedPerSec() float64 {
	if r.RunNS <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.RunNS) / 1e9)
}

// Drops folds the server-side refusal counters relevant to the
// request plane: refused SYNs, accept-queue overflows, and full UDP
// datagram queues.
func (r Scenario9Result) Drops() uint64 {
	return r.Stats.SynDrops + r.Stats.AcceptOverflows + r.Stats.UdpQueueDrops
}

// s9Sports walks the managed port range for n source ports whose
// inbound tuples the device steers to the wanted queue, so worker w's
// flows land on shard w. The cursor is shared across workers to keep
// every port distinct.
func s9Sports(s *testbed.Bed, proto uint8, dport uint16, want, n int, cursor *uint16) []uint16 {
	out := make([]uint16, 0, n)
	for guard := 0; len(out) < n && guard < 1<<17; guard++ {
		p := *cursor
		*cursor++
		if *cursor < s9SportBase {
			*cursor = s9SportBase
		}
		if s.Dev.RxQueueOf(peerIP(0), localIP(0), proto, p, dport) == want {
			out = append(out, p)
		}
	}
	return out
}

// s9Deadliners adapts the per-worker clients to the driver's deadline
// interface.
type s9Worker interface {
	deadliner
	Done() bool
	Err() hostos.Errno
}

// Scenario9Run drives one point on a built bed.
func Scenario9Run(s *testbed.Bed, cfg Scenario9Config) (res Scenario9Result, err error) {
	clk, ok := s.Clk.(*sim.VClock)
	if !ok {
		return res, fmt.Errorf("core: scenario 9 runs need the virtual clock")
	}
	cfg.applyDefaults()
	res = Scenario9Result{
		Proto: cfg.Proto, Shards: cfg.Shards, CapMode: cfg.CapMode,
		Rate: cfg.Rate, Conns: cfg.Conns,
	}

	// One client worker per server shard (never more workers than
	// connection slots), each with its own latency histogram.
	workers := cfg.Shards
	if workers > cfg.Conns {
		workers = cfg.Conns
	}
	share := func(total, w int) int { // worker w's slice of total slots
		n := total / workers
		if w < total%workers {
			n++
		}
		return n
	}

	api := s.Sharded.API()
	papi := s.Peers[0].Env.Loop.Locked()
	cursor := s9SportBase
	var (
		steppers []func(now int64)
		timed    []deadliner
		checks   []s9Worker
		hists    []*stats.Histogram
	)
	var srvErr func() hostos.Errno

	switch cfg.Proto {
	case "http":
		srv := app.NewHTTPServer(fstack.IPv4Addr{}, s9HTTPPort, s9Backlog, cfg.RespBytes)
		steppers = append(steppers, func(now int64) { srv.Step(api, now) })
		timed = append(timed, srv)
		srvErr = srv.Err
		var clis []*app.HTTPClient
		for w := 0; w < workers; w++ {
			conns := share(cfg.Conns, w)
			sports := s9Sports(s, fstack.ProtoTCP, s9HTTPPort, w, conns, &cursor)
			if len(sports) < conns {
				return res, fmt.Errorf("core: scenario 9 found no steered source ports for shard %d", w)
			}
			rate := cfg.Rate * float64(conns) / float64(cfg.Conns)
			cli, err := app.NewHTTPClient(localIP(0), s9HTTPPort, conns, sports, rate, cfg.DurationNS)
			if err != nil {
				return res, err
			}
			if s.Obs != nil && s.Obs.Trace != nil {
				cli.Trace, cli.Src = s.Obs.Trace, uint16(192+w)
			}
			clis = append(clis, cli)
			timed = append(timed, cli)
			checks = append(checks, cli)
			hists = append(hists, &cli.Hist)
		}
		s.Peers[0].Env.Loop.OnLoop = func(now int64) bool {
			for _, c := range clis {
				c.Step(papi, now)
			}
			return true
		}
		defer func() {
			for _, c := range clis {
				res.Issued += c.Issued()
				res.Completed += c.Completed()
				res.Deferred += c.Deferred()
				if c.RunNS() > res.RunNS {
					res.RunNS = c.RunNS()
				}
			}
		}()

	case "dns":
		srv := app.NewDNSServer(fstack.IPv4Addr{}, s9DNSPort)
		steppers = append(steppers, func(now int64) { srv.Step(api, now) })
		timed = append(timed, srv)
		srvErr = srv.Err
		var clis []*app.DNSClient
		for w := 0; w < workers; w++ {
			conc := share(cfg.Conns, w)
			sports := s9Sports(s, fstack.ProtoUDP, s9DNSPort, w, 1, &cursor)
			if len(sports) < 1 {
				return res, fmt.Errorf("core: scenario 9 found no steered source port for shard %d", w)
			}
			rate := cfg.Rate / float64(workers)
			if cfg.Rate <= 0 {
				rate = 0
			}
			cli, err := app.NewDNSClient(localIP(0), s9DNSPort, sports[0], rate, conc, cfg.DurationNS, cfg.TimeoutNS, s9MaxTries)
			if err != nil {
				return res, err
			}
			if s.Obs != nil && s.Obs.Trace != nil {
				cli.Trace, cli.Src = s.Obs.Trace, uint16(192+w)
			}
			clis = append(clis, cli)
			timed = append(timed, cli)
			checks = append(checks, cli)
			hists = append(hists, &cli.Hist)
		}
		s.Peers[0].Env.Loop.OnLoop = func(now int64) bool {
			for _, c := range clis {
				c.Step(papi, now)
			}
			return true
		}
		defer func() {
			for _, c := range clis {
				res.Issued += c.Issued()
				res.Completed += c.Completed()
				res.Deferred += c.Deferred()
				res.Timeouts += c.Timeouts()
				res.Failed += c.Failed()
				if c.RunNS() > res.RunNS {
					res.RunNS = c.RunNS()
				}
			}
		}()

	default:
		return res, fmt.Errorf("core: scenario 9 proto must be http or dns, not %q", cfg.Proto)
	}

	done := func() bool {
		if srvErr() != hostos.OK {
			return true
		}
		for _, c := range checks {
			if !c.Done() && c.Err() == hostos.OK {
				return false
			}
		}
		return true
	}
	// Budget: the measured phase plus generous handshake/drain/retry
	// slack (DNS abandons after MaxTries timeouts).
	slack := int64(8_000e6) + int64(s9MaxTries+1)*cfg.TimeoutNS
	if err = runVirtualUntil(clk, s, steppers, timed, done, cfg.DurationNS+slack); err != nil {
		return res, err
	}
	if errno := srvErr(); errno != hostos.OK {
		return res, fmt.Errorf("core: scenario 9 server failed: %v", errno)
	}
	for i, c := range checks {
		if errno := c.Err(); errno != hostos.OK {
			return res, fmt.Errorf("core: scenario 9 worker %d failed: %v", i, errno)
		}
	}

	// Merge the per-worker (per-shard) histograms for the report.
	var merged stats.Histogram
	for _, h := range hists {
		merged.Merge(h)
	}
	res.P50NS = merged.Quantile(0.50)
	res.P99NS = merged.Quantile(0.99)
	res.P999NS = merged.Quantile(0.999)
	res.Stats = s.Sharded.Stats()
	res.Obs = s.Obs
	if err = s.CloseObs(); err != nil {
		return res, err
	}
	return res, nil
}

// DefaultScenario9Duration is the measured phase's virtual length.
const DefaultScenario9Duration = int64(500e6)

// RunScenario9 measures one configuration on a fresh virtual testbed.
func RunScenario9(cfg Scenario9Config) (Scenario9Result, error) {
	s, err := NewScenario9(sim.NewVClock(), cfg)
	if err != nil {
		return Scenario9Result{}, err
	}
	return Scenario9Run(s, cfg)
}

// RunScenario9RateSweep measures the open-loop offered-rate ladder in
// both Baseline and capability mode.
func RunScenario9RateSweep(proto string, shards, conns int, rates []float64, link netem.Config, durationNS int64) ([]Scenario9Result, error) {
	var cells []Scenario9Config
	for _, capMode := range []bool{false, true} {
		for _, rate := range rates {
			cells = append(cells, Scenario9Config{
				Proto: proto, Shards: shards, CapMode: capMode,
				Rate: rate, Conns: conns, Link: link, DurationNS: durationNS,
			})
		}
	}
	return sweep(Parallelism(), cells, RunScenario9, func(cfg Scenario9Config) string {
		return fmt.Sprintf("%s rate=%.0f cap=%v", cfg.Proto, cfg.Rate, cfg.CapMode)
	})
}

// RunScenario9ConcurrencySweep measures the closed-loop concurrency
// ladder in both Baseline and capability mode.
func RunScenario9ConcurrencySweep(proto string, shards int, concs []int, link netem.Config, durationNS int64) ([]Scenario9Result, error) {
	var cells []Scenario9Config
	for _, capMode := range []bool{false, true} {
		for _, conc := range concs {
			cells = append(cells, Scenario9Config{
				Proto: proto, Shards: shards, CapMode: capMode,
				Conns: conc, Link: link, DurationNS: durationNS,
			})
		}
	}
	return sweep(Parallelism(), cells, RunScenario9, func(cfg Scenario9Config) string {
		return fmt.Sprintf("%s conc=%d cap=%v", cfg.Proto, cfg.Conns, cfg.CapMode)
	})
}

// FormatScenario9 renders a sweep: per-request latency quantiles
// against offered load, the drops column folding refused SYNs,
// accept-queue overflows and full UDP queues.
func FormatScenario9(title string, results []Scenario9Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 9 — request/response tail latency: %s\n", title)
	if len(results) > 0 {
		r := results[0]
		fmt.Fprintf(&b, "(port %.0f Gbit/s, %d shards, per-request latency merged across shards)\n",
			s9LineRate/1e9, r.Shards)
	}
	fmt.Fprintf(&b, "  %-9s %-14s %9s %9s %9s %9s %5s %6s\n",
		"Mode", "Load", "Done/s", "p50(µs)", "p99(µs)", "p999(µs)", "tmo", "drops")
	for _, r := range results {
		load := fmt.Sprintf("closed ×%d", r.Conns)
		if r.Rate > 0 {
			load = fmt.Sprintf("open %.0f/s", r.Rate)
		}
		note := ""
		if r.Deferred > 0 {
			note = fmt.Sprintf("  (client deferred %d)", r.Deferred)
		}
		if r.Failed > 0 {
			note += fmt.Sprintf("  (%d failed)", r.Failed)
		}
		fmt.Fprintf(&b, "  %-9s %-14s %9.0f %9.1f %9.1f %9.1f %5d %6d%s\n",
			modeName(r.CapMode), load, r.CompletedPerSec(),
			float64(r.P50NS)/1e3, float64(r.P99NS)/1e3, float64(r.P999NS)/1e3,
			r.Timeouts, r.Drops(), note)
	}
	return b.String()
}
