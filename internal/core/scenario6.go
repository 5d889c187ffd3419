package core

import (
	"fmt"
	"strings"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Scenario 6 — the composition the spec model exists for: Scenario 4's
// sharded RSS stack driving many concurrent flows through Scenario 5's
// seeded, rate-limited, lossy netem bottleneck. Before the testbed
// layer, nothing exercised the multi-queue stack and the impaired link
// together — each lived in its own hand-wired constructor; here the
// whole topology is one spec with both knobs set, plus a per-direction
// LinkSpec so the ACK path can be impaired independently of the data
// path (slow ACK channels, asymmetric loss).
//
// The measurement is the edge-gateway story: a K-core box pushing M
// upload flows into a metro/WAN bottleneck with bursty loss. Two axes
// are swept at equal seeded link settings — shard count (CPU scaling)
// and recovery machinery (the paper's go-back-N stack vs SACK + window
// scaling) — in Baseline and capability mode, so the composed win and
// the capability overhead read off one table.

const (
	// s6LineRate is the access port: multi-gigabit, faster than one
	// core, as in Scenario 4.
	s6LineRate = 4e9
	// s6CPUBps / s6CPUWindow: one shard's core budget (Scenario 4's
	// CPU model).
	s6CPUBps    = 1e9
	s6CPUWindow = 3 * 12304
	// s6RxFifoBytes is the per-queue RX buffer of the multi-gigabit
	// part.
	s6RxFifoBytes = 512 << 10

	// The WAN bottleneck: 2 Gbit/s — above one core's budget, below
	// the port and the aggregate core budget, so BOTH axes bind: shard
	// count governs how much the box can push, recovery governs how
	// much survives the loss.
	s6RateBps = 2e9
	// s6DelayNS is the one-way propagation delay (10 ms RTT: a metro
	// WAN path — short enough that the 64 KiB window alone does not
	// decide the comparison, long enough that recovery style does).
	s6DelayNS = int64(5e6)
	// s6QueueBytes keeps the bottleneck queue near one BDP.
	s6QueueBytes = 4 << 20
	// s6Loss / s6FadeSlots: ~0.5 % stationary loss in ~30-frame fades
	// (Gilbert–Elliott), the bursty pattern real WAN paths show.
	s6Loss      = 0.005
	s6FadeSlots = 30
	// s6Seed makes every impairment stream reproducible.
	s6Seed = 2026

	// s6RTOMin: queue spikes add ~16 ms (4 MiB at 2 Gbit/s) to the
	// 10 ms RTT; 100 ms keeps recovery on the dup-ACK path.
	s6RTOMin = int64(100e6)

	// Modern-tuning knobs: per-flow 1 MiB buffers cover a fair share
	// of the 2.5 MB path BDP with headroom; shift 6 advertises up to
	// 4 MiB through the 16-bit window field.
	s6SndBuf = 1 << 20
	s6RcvBuf = 1 << 20
	s6WScale = 6

	// Environment sizing: M flows × (1+1) MiB buffers plus the pool.
	s6MachineMem = 96 << 20
	s6SegSize    = 32 << 20
	s6CVMMem     = 40 << 20
	s6PoolBufs   = 4096
	s6RingSize   = 256

	// s6BasePort is the first iperf port; flow f uses s6BasePort+f.
	s6BasePort = uint16(5501)
)

// Scenario6Config parameterizes the composed testbed.
type Scenario6Config struct {
	// Shards is the stack shard / NIC queue-pair count.
	Shards int
	// CapMode runs the sharded stack inside a cVM with capability DMA.
	CapMode bool
	// Modern enables SACK + window scaling (+ sized buffers) on both
	// ends; false reproduces the paper's go-back-N stack.
	Modern bool
	// Congestion selects the modern stacks' congestion controller
	// (fstack.CCReno / fstack.CCCubic; "" = reno). Ignored — like the
	// rest of the tuning — when Modern is false.
	Congestion string
	// Download flips the traffic direction: the peer uploads M flows
	// through the impaired link into listeners cloned across the local
	// shards, exercising RSS acceptance under loss (each SYN lands
	// wherever the hash steers it). False is the original upload
	// layout. Fwd/Rev keep their meaning — Fwd impairs the data
	// direction, Rev the ACK direction — whichever way data flows.
	Download bool
	// Fwd impairs the data direction (local box toward peer). The
	// zero value gets the full Scenario 6 default link, including the
	// seeded bursty loss; a non-zero config only has its zero
	// rate/queue/seed/delay fields defaulted, so an explicitly
	// loss-free link stays loss-free.
	Fwd netem.Config
	// Rev, when non-nil, impairs the ACK path independently (the
	// per-direction LinkSpec). nil derives a clean reverse channel
	// with the forward delay, so the RTT is symmetric.
	Rev *netem.Config
}

// s6Tuning is the modern stack configuration for this scenario.
func s6Tuning(cc string) *fstack.TCPTuning {
	return &fstack.TCPTuning{
		SACK:        true,
		WindowScale: s6WScale,
		SndBufBytes: s6SndBuf,
		RcvBufBytes: s6RcvBuf,
		Congestion:  cc,
	}
}

// Setup6 is a wired Scenario 6 topology.
type Setup6 struct {
	*testbed.Bed
	Cfg Scenario6Config
}

// Link is the WAN impairment pipeline (direction 0 = data path).
func (s *Setup6) Link() *netem.Link { return s.Links[0] }

// NewScenario6 builds the composed layout: one fast port with
// cfg.Shards RSS-steered queue pairs and CPU-budgeted shards, and one
// link partner behind the per-direction impairment pipeline.
func NewScenario6(clk hostos.Clock, cfg Scenario6Config) (*Setup6, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 6 needs at least one shard")
	}
	fwd := cfg.Fwd
	// Default loss only on the untouched zero config: a caller who
	// shaped the link at all (even just its delay) asked for exactly
	// the loss they set — possibly none.
	if fwd == (netem.Config{}) {
		fwd.GEBadProb, fwd.GERecoverProb = netem.GEFromStationary(s6Loss, s6FadeSlots)
	}
	if fwd.RateBps == 0 {
		fwd.RateBps = s6RateBps
	}
	if fwd.QueueBytes == 0 {
		fwd.QueueBytes = s6QueueBytes
	}
	if fwd.Seed == 0 {
		fwd.Seed = s6Seed
	}
	if fwd.DelayNS == 0 {
		fwd.DelayNS = s6DelayNS
	}
	var rev netem.Config
	if cfg.Rev != nil {
		rev = *cfg.Rev
		if rev.Seed == 0 {
			rev.Seed = fwd.Seed + 1
		}
	} else {
		rev = netem.Config{DelayNS: fwd.DelayNS, Seed: fwd.Seed + 1}
	}
	cfg.Fwd, cfg.Rev = fwd, &rev

	stack := testbed.StackSpec{
		Shards: cfg.Shards, RingSize: s6RingSize,
		CPUBps: s6CPUBps, CPUWindowNS: s6CPUWindow,
		RTOMinNS: s6RTOMin,
	}
	peerStack := testbed.StackSpec{RTOMinNS: s6RTOMin}
	if cfg.Modern {
		stack.Tuning = s6Tuning(cfg.Congestion)
		peerStack.Tuning = s6Tuning(cfg.Congestion)
	}
	// Fwd impairs the data direction: toward the peer for uploads,
	// toward the local box for downloads.
	link := &testbed.LinkSpec{ToPeer: fwd, ToLocal: rev}
	if cfg.Download {
		link = &testbed.LinkSpec{ToPeer: rev, ToLocal: fwd}
	}
	bed, err := testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", MemBytes: s6MachineMem, Ports: 1,
			LineRateBps: s6LineRate, RxFifoBytes: s6RxFifoBytes, CapDMA: cfg.CapMode,
		},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: "s6", CVM: cfg.CapMode, CVMName: "cvm1",
				CVMBytes: s6CVMMem, SegBytes: s6SegSize,
				PoolBufs: s6PoolBufs, PoolName: "s6-pkt",
				Ifs:   []testbed.IfSpec{{Port: 0}},
				Stack: stack,
			},
		},
		Peers: []testbed.PeerSpec{
			{
				Port: 0, LineRateBps: s6LineRate,
				SegBytes: s6SegSize, PoolBufs: s6PoolBufs,
				Link:  link,
				Stack: peerStack,
			},
		},
	})
	if err != nil {
		return nil, err
	}
	return &Setup6{Bed: bed, Cfg: cfg}, nil
}

// Scenario6Result is one measured point. Goodput is measured at the
// receivers (the far end of the impaired path), so retransmissions and
// sender-side buffering cannot inflate it.
type Scenario6Result struct {
	Shards   int
	Flows    int
	CapMode  bool
	Modern   bool
	Download bool
	// Fwd is the data direction's link config, whichever way data
	// flows.
	Fwd     netem.Config
	Mbps    float64   // aggregate receiver goodput over all flows
	PerFlow []float64 // per-flow receiver goodput
	// Stats aggregates the local shards' counters (the senders'
	// recovery story).
	Stats fstack.StackStats
	// FwdStats / RevStats are the link's per-direction accounting.
	FwdStats netem.DirStats
	RevStats netem.DirStats
}

// Scenario6Bandwidth drives flows concurrent iperf transfers between
// the sharded local box and the peer through the impaired link for
// durationNS of virtual traffic time. Uploads (the default) send from
// the local shards — the steering oracle places each connection on the
// shard its ACK stream will hit, as in Scenario 4's client mode.
// Downloads (Cfg.Download) send from the peer into listeners cloned
// across every shard, each SYN accepted wherever RSS lands it; the
// load generator engineers its source ports to round-robin the
// receiver's queues, as in Scenario 4's server mode.
func Scenario6Bandwidth(s *Setup6, flows int, durationNS int64) (Scenario6Result, error) {
	clk, ok := s.Clk.(*sim.VClock)
	if !ok {
		return Scenario6Result{}, fmt.Errorf("core: scenario 6 runs need the virtual clock")
	}
	if flows < 1 {
		return Scenario6Result{}, fmt.Errorf("core: scenario 6 needs at least one flow")
	}
	dataDir := 0 // link direction the data crosses
	if s.Cfg.Download {
		dataDir = 1
	}
	res := Scenario6Result{
		Shards: s.Sharded.NumShards(), Flows: flows,
		CapMode: s.Cfg.CapMode, Modern: s.Cfg.Modern, Download: s.Cfg.Download,
		Fwd: s.Link().DirConfig(dataDir),
	}

	api := s.Sharded.API()
	var appSteppers []func(now int64)
	var localCli []*iperf.Client
	var localSrv []*iperf.Server
	var peerCli []*iperf.Client
	var peerSrv []*iperf.Server
	for f := 0; f < flows; f++ {
		port := s6BasePort + uint16(f)
		if s.Cfg.Download {
			srv := iperf.NewServer(fstack.IPv4Addr{}, port)
			localSrv = append(localSrv, srv)
			appSteppers = append(appSteppers, func(now int64) { srv.Step(api, now) })
			cli := iperf.NewClient(localIP(0), port, durationNS)
			cli.LocalPort = engineerCport(s.Bed, f, port)
			peerCli = append(peerCli, cli)
		} else {
			cli := iperf.NewClient(peerIP(0), port, durationNS)
			localCli = append(localCli, cli)
			appSteppers = append(appSteppers, func(now int64) { cli.Step(api, now) })
			peerSrv = append(peerSrv, iperf.NewServer(fstack.IPv4Addr{}, port))
		}
	}
	papi := s.Peers[0].Env.Loop.Locked()
	s.Peers[0].Env.Loop.OnLoop = func(now int64) bool {
		for _, c := range peerCli {
			c.Step(papi, now)
		}
		for _, sv := range peerSrv {
			sv.Step(papi, now)
		}
		return true
	}

	allDone := func(clis []*iperf.Client, srvs []*iperf.Server) bool {
		for _, c := range clis {
			if !c.Done() {
				return false
			}
		}
		for _, sv := range srvs {
			if !sv.Done() {
				return false
			}
		}
		return true
	}
	done := func() bool {
		return allDone(localCli, localSrv) && allDone(peerCli, peerSrv)
	}
	// Recovery and the final drain ride WAN RTTs through a deep queue:
	// generous headroom beyond the traffic time.
	deadline := durationNS + 8_000e6 + 200*2*res.Fwd.DelayNS
	timed := append(timedOf(localCli, localSrv), timedOf(peerCli, peerSrv)...)
	if err := runVirtualUntil(clk, s.Bed, appSteppers, timed, done, deadline); err != nil {
		return res, err
	}

	// Goodput is read at the data receivers, behind the impaired path.
	recv := peerSrv
	if s.Cfg.Download {
		recv = localSrv
	}
	for f := 0; f < flows; f++ {
		var cErr, sErr hostos.Errno
		if s.Cfg.Download {
			cErr, sErr = peerCli[f].Err(), localSrv[f].Err()
		} else {
			cErr, sErr = localCli[f].Err(), peerSrv[f].Err()
		}
		if cErr != 0 {
			return res, fmt.Errorf("core: scenario 6 client %d failed: %v", f, cErr)
		}
		if sErr != 0 {
			return res, fmt.Errorf("core: scenario 6 server %d failed: %v", f, sErr)
		}
		rep := recv[f].Report()
		res.PerFlow = append(res.PerFlow, rep.Mbps())
		res.Mbps += rep.Mbps()
	}
	// Stats carry the data sender's recovery story: the local shards
	// for uploads, the peer stack for downloads.
	if s.Cfg.Download {
		s.Peers[0].Env.Stk.Lock()
		res.Stats = s.Peers[0].Env.Stk.Stats()
		s.Peers[0].Env.Stk.Unlock()
	} else {
		res.Stats = s.Sharded.Stats()
	}
	res.FwdStats = s.Link().Stats(dataDir)
	res.RevStats = s.Link().Stats(1 - dataDir)
	return res, nil
}

// DefaultScenario6Duration is the per-measurement traffic time.
const DefaultScenario6Duration = int64(300e6)

// RunScenario6 measures one configuration on a fresh virtual testbed.
func RunScenario6(cfg Scenario6Config, flows int, durationNS int64) (Scenario6Result, error) {
	s, err := NewScenario6(sim.NewVClock(), cfg)
	if err != nil {
		return Scenario6Result{}, err
	}
	return Scenario6Bandwidth(s, flows, durationNS)
}

// RunScenario6Sweep measures every (shard count × recovery) pair in
// both Baseline and capability mode, at equal seeded link settings.
func RunScenario6Sweep(shardCounts []int, flows int, durationNS int64, base Scenario6Config) ([]Scenario6Result, error) {
	var cells []Scenario6Config
	for _, capMode := range []bool{false, true} {
		for _, modern := range []bool{false, true} {
			for _, k := range shardCounts {
				cfg := base
				cfg.Shards, cfg.CapMode, cfg.Modern = k, capMode, modern
				cells = append(cells, cfg)
			}
		}
	}
	return sweep(Parallelism(), cells, func(cfg Scenario6Config) (Scenario6Result, error) {
		return RunScenario6(cfg, flows, durationNS)
	}, func(cfg Scenario6Config) string {
		return fmt.Sprintf("shards=%d cap=%v modern=%v", cfg.Shards, cfg.CapMode, cfg.Modern)
	})
}

// FormatScenario6 renders a sweep. Speedup is against the paper
// configuration — 1 shard, go-back-N — of the same capability mode:
// the composed win of sharding and modern recovery together.
func FormatScenario6(results []Scenario6Result) string {
	var b strings.Builder
	mode := ""
	if len(results) > 0 && results[0].Download {
		mode = " (download: peer into RSS-cloned listeners)"
	}
	fmt.Fprintf(&b, "SCENARIO 6 — sharded stack over an impaired WAN: aggregate goodput%s\n", mode)
	if len(results) > 0 {
		f := results[0].Fwd
		loss := f.LossRate
		kind := "i.i.d."
		if f.GEBadProb > 0 {
			loss = f.GEBadProb / (f.GEBadProb + f.GERecoverProb) * f.GELossBad
			kind = "bursty"
		}
		fmt.Fprintf(&b, "(%.1f Gbit/s bottleneck, %.0f ms RTT, %.2f%% %s loss, clean ACK path unless impaired)\n",
			f.RateBps/1e9, float64(2*f.DelayNS)/1e6, loss*100, kind)
	}
	base := map[bool]float64{}
	for _, r := range results {
		if r.Shards == 1 && !r.Modern {
			base[r.CapMode] = r.Mbps
		}
	}
	fmt.Fprintf(&b, "  %-10s %-9s %7s %6s %10s %9s  %s\n",
		"Mode", "Recovery", "Shards", "Flows", "Mbit/s", "Speedup", "recovery breakdown")
	for _, r := range results {
		rec := "go-back-N"
		if r.Modern {
			rec = "SACK+WS"
		}
		speedup := "-"
		if b1 := base[r.CapMode]; b1 > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Mbps/b1)
		}
		fmt.Fprintf(&b, "  %-10s %-9s %7d %6d %10.0f %9s  %s\n",
			modeName(r.CapMode), rec, r.Shards, r.Flows, r.Mbps, speedup, r.Stats.RecoverySummary())
	}
	return b.String()
}
