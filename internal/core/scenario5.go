package core

import (
	"fmt"
	"strings"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Scenario 5 — the lossy high-BDP WAN. Every earlier scenario runs over
// a perfect point-to-point cable, so the stack's recovery machinery and
// window limits were never the binding constraint. Here the cable is
// replaced by a netem.Link — a rate-limited bottleneck with delay,
// seeded random or bursty loss and a bounded queue — and the local box
// (Baseline process or capability-mode cVM, as in Table II) drives one
// iperf flow through it. The measurement compares the paper's stack
// ("go-back-N": no SACK, 64 KiB windows) against the modern tuning
// (RFC 2018 SACK + RFC 7323 window scaling) at equal link settings, so
// the recovery upgrade and the capability overhead can be read off the
// same table.

const (
	// s5LineRate is both ports' access-line rate; the netem bottleneck
	// below it is what shapes the path.
	s5LineRate = 1e9
	// s5RateBps is the default WAN bottleneck.
	s5RateBps = 100e6
	// s5DelayNS is the default one-way propagation delay (50 ms: a
	// transcontinental path; RTT 100 ms).
	s5DelayNS = int64(50e6)
	// s5QueueBytes is the bottleneck queue: roughly one BDP at the
	// default rate and delay, the classic router-sizing rule.
	s5QueueBytes = 1 << 20
	// s5Seed makes every impairment stream reproducible.
	s5Seed = 2025

	// s5RTOMin is the retransmission-timer floor on both ends —
	// FreeBSD's 200 ms on WAN-scale RTTs (the simulator default of
	// 2 ms would fire spuriously on every queue-induced RTT bump).
	s5RTOMin = int64(200e6)

	// Modern-tuning knobs: 4 MiB socket buffers cover the default
	// 100 Mbit/s x 100 ms BDP (1.25 MB) with slow-start overshoot to
	// spare; shift 7 advertises up to 4 MiB
	// through the 16-bit window field.
	s5SndBuf = 4 << 20
	s5RcvBuf = 4 << 20
	s5WScale = 7

	// Environment sizing: two 4 MiB buffers per connection plus the
	// mbuf pool must fit the segment.
	s5SegSize  = 24 << 20
	s5CVMMem   = 32 << 20
	s5PoolBufs = 3072

	s5Port = uint16(5401)
)

// Scenario5Config parameterizes the WAN testbed.
type Scenario5Config struct {
	// CapMode runs the local stack inside a cVM with capability DMA;
	// false is the Baseline process layout.
	CapMode bool
	// Modern enables SACK + window scaling (+ BDP-sized buffers) on
	// both ends; false reproduces the paper's stack (the A/B knob).
	Modern bool
	// Congestion selects the modern stack's congestion controller
	// (fstack.CCReno / fstack.CCCubic; "" = reno). Ignored — like the
	// rest of the tuning — when Modern is false.
	Congestion string
	// Link is the impairment pipeline, applied symmetrically. Zero
	// values get the Scenario 5 defaults for rate, queue and seed —
	// pass explicit fields to sweep loss and delay.
	Link netem.Config
	// Obs selects the observability instruments wired into the bed.
	// The zero value keeps everything off and the run's goldens
	// byte-identical.
	Obs testbed.ObsSpec
}

// s5Tuning is the modern (SACK + window scaling) stack configuration.
func s5Tuning(cc string) *fstack.TCPTuning {
	return &fstack.TCPTuning{
		SACK:        true,
		WindowScale: s5WScale,
		SndBufBytes: s5SndBuf,
		RcvBufBytes: s5RcvBuf,
		Congestion:  cc,
	}
}

// Setup5 is a wired Scenario 5 topology.
type Setup5 struct {
	*testbed.Bed
	Cfg Scenario5Config
}

// Link is the WAN impairment pipeline.
func (s *Setup5) Link() *netem.Link { return s.Links[0] }

// NewScenario5 builds the WAN layout: local box (process or cVM) and
// one link partner, joined by the impairment pipeline.
func NewScenario5(clk hostos.Clock, cfg Scenario5Config) (*Setup5, error) {
	if cfg.Link.RateBps == 0 {
		cfg.Link.RateBps = s5RateBps
	}
	if cfg.Link.QueueBytes == 0 {
		cfg.Link.QueueBytes = s5QueueBytes
	}
	if cfg.Link.Seed == 0 {
		cfg.Link.Seed = s5Seed
	}
	stack := testbed.StackSpec{RTOMinNS: s5RTOMin}
	if cfg.Modern {
		stack.Tuning = s5Tuning(cfg.Congestion)
	}
	name := "proc"
	if cfg.CapMode {
		name = "cvm1"
	}
	bed, err := testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", Ports: 1, LineRateBps: s5LineRate, CapDMA: cfg.CapMode,
		},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: name, CVM: cfg.CapMode,
				CVMBytes: s5CVMMem, SegBytes: s5SegSize, PoolBufs: s5PoolBufs,
				Ifs:   []testbed.IfSpec{{Port: 0}},
				Stack: stack,
			},
		},
		Peers: []testbed.PeerSpec{
			{
				Port: 0, LineRateBps: s5LineRate,
				Link:  testbed.SymmetricLink(cfg.Link),
				Stack: stack,
			},
		},
		Obs: cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Setup5{Bed: bed, Cfg: cfg}, nil
}

// Scenario5Result is one measured WAN point. Goodput is measured at
// the receiver (the far end of the impaired path), so sender-side
// buffering cannot inflate it.
type Scenario5Result struct {
	CapMode bool
	Modern  bool
	Link    netem.Config
	Mbps    float64
	// Stats are the local (sending) stack's counters — the retransmit
	// breakdown is the recovery story of the run.
	Stats fstack.StackStats
	// Fwd is the data direction's link accounting.
	Fwd netem.DirStats
	// Obs carries the run's observability instruments (flight recorder,
	// metrics timeseries, latency histograms); nil when the config's
	// ObsSpec was zero.
	Obs *obs.Obs
}

// RTTms is the path round-trip time implied by the link config.
func (r Scenario5Result) RTTms() float64 { return float64(2*r.Link.DelayNS) / 1e6 }

// Scenario5Bandwidth sends one flow from the local box through the
// impaired link for durationNS of virtual traffic time.
func Scenario5Bandwidth(s *Setup5, durationNS int64) (Scenario5Result, error) {
	clk, ok := s.Clk.(*sim.VClock)
	if !ok {
		return Scenario5Result{}, fmt.Errorf("core: scenario 5 runs need the virtual clock")
	}
	res := Scenario5Result{CapMode: s.Cfg.CapMode, Modern: s.Cfg.Modern, Link: s.Link().Config()}

	cli := iperf.NewClient(peerIP(0), s5Port, durationNS)
	attachInLoop(s.Envs[0], cli.Step)
	srv := iperf.NewServer(fstack.IPv4Addr{}, s5Port)
	attachInLoop(s.Peers[0].Env, srv.Step)

	done := func() bool { return cli.Done() && srv.Done() }
	// Loss recovery and the final drain ride WAN RTTs: give the run
	// generous headroom beyond the traffic time.
	deadline := durationNS + 8_000e6 + 200*2*s.Link().Config().DelayNS
	if err := runVirtualUntil(clk, s.Bed, nil, timedOf([]*iperf.Client{cli}, []*iperf.Server{srv}), done, deadline); err != nil {
		return res, err
	}
	if cli.Err() != 0 {
		return res, fmt.Errorf("core: scenario 5 client failed: %v", cli.Err())
	}
	if srv.Err() != 0 {
		return res, fmt.Errorf("core: scenario 5 server failed: %v", srv.Err())
	}
	res.Mbps = srv.Report().Mbps()
	s.Envs[0].Stk.Lock()
	res.Stats = s.Envs[0].Stk.Stats()
	s.Envs[0].Stk.Unlock()
	res.Fwd = s.Link().Stats(0)
	res.Obs = s.Obs
	if err := s.CloseObs(); err != nil {
		return res, fmt.Errorf("core: scenario 5 capture: %w", err)
	}
	return res, nil
}

// DefaultScenario5Duration is the per-measurement traffic time.
const DefaultScenario5Duration = int64(1_000e6)

// RunScenario5 measures one configuration on a fresh virtual testbed.
func RunScenario5(cfg Scenario5Config, durationNS int64) (Scenario5Result, error) {
	s, err := NewScenario5(sim.NewVClock(), cfg)
	if err != nil {
		return Scenario5Result{}, err
	}
	return Scenario5Bandwidth(s, durationNS)
}

// RunScenario5LossSweep measures goodput vs loss rate: for every loss
// point, go-back-N vs SACK in both Baseline and capability mode, at
// equal link settings. A non-zero obs instruments every point's bed
// and exports the traces/timeseries per point. Cells run
// on the host worker pool (Parallelism); results keep sweep order.
func RunScenario5LossSweep(losses []float64, delayNS int64, rateBps float64, cc string, durationNS int64, obs Scenario5Obs) ([]Scenario5Result, error) {
	var cells []Scenario5Config
	for _, loss := range losses {
		for _, capMode := range []bool{false, true} {
			for _, modern := range []bool{false, true} {
				cells = append(cells, Scenario5Config{
					CapMode: capMode, Modern: modern, Congestion: cc,
					Link: netem.Config{LossRate: loss, DelayNS: delayNS, RateBps: rateBps},
				})
			}
		}
	}
	return sweep(Parallelism(), cells, func(cfg Scenario5Config) (Scenario5Result, error) {
		return runScenario5Point(cfg, durationNS, obs)
	}, func(cfg Scenario5Config) string {
		return fmt.Sprintf("loss=%.2f%% cap=%v modern=%v", cfg.Link.LossRate*100, cfg.CapMode, cfg.Modern)
	})
}

// RunScenario5BDPSweep measures goodput vs path BDP (the one-way delay
// swept at a fixed bottleneck rate), go-back-N vs SACK+window-scaling,
// in both Baseline and capability mode.
func RunScenario5BDPSweep(delaysNS []int64, lossRate float64, rateBps float64, cc string, durationNS int64, obs Scenario5Obs) ([]Scenario5Result, error) {
	var cells []Scenario5Config
	for _, d := range delaysNS {
		for _, capMode := range []bool{false, true} {
			for _, modern := range []bool{false, true} {
				cells = append(cells, Scenario5Config{
					CapMode: capMode, Modern: modern, Congestion: cc,
					Link: netem.Config{LossRate: lossRate, DelayNS: d, RateBps: rateBps},
				})
			}
		}
	}
	return sweep(Parallelism(), cells, func(cfg Scenario5Config) (Scenario5Result, error) {
		return runScenario5Point(cfg, durationNS, obs)
	}, func(cfg Scenario5Config) string {
		return fmt.Sprintf("delay=%dms cap=%v modern=%v", cfg.Link.DelayNS/1e6, cfg.CapMode, cfg.Modern)
	})
}

// runScenario5Point runs one sweep point, instrumented and exported
// per the sweep observability config (the zero value is off).
func runScenario5Point(cfg Scenario5Config, durationNS int64, obs Scenario5Obs) (Scenario5Result, error) {
	label := scenario5Label(cfg)
	cfg.Obs = obs.pointSpec(label)
	r, err := RunScenario5(cfg, durationNS)
	if err != nil {
		return r, err
	}
	if err := obs.export(r, label); err != nil {
		return r, err
	}
	return r, nil
}

// FormatScenario5 renders a sweep with the recovery breakdown beside
// every goodput figure.
func FormatScenario5(title string, results []Scenario5Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 5 — %s\n", title)
	fmt.Fprintf(&b, "  %-9s %-9s %7s %8s %9s %9s  %s\n",
		"Mode", "Recovery", "Loss%", "RTT(ms)", "BDP(KiB)", "Mbit/s", "recovery breakdown")
	for _, r := range results {
		rec := "go-back-N"
		if r.Modern {
			rec = "SACK+WS"
		}
		bdpKiB := r.Link.RateBps / 8 * float64(2*r.Link.DelayNS) / 1e9 / 1024
		fmt.Fprintf(&b, "  %-9s %-9s %7.2f %8.0f %9.0f %9.1f  %s\n",
			modeName(r.CapMode), rec, r.Link.LossRate*100, r.RTTms(), bdpKiB, r.Mbps, r.Stats.RecoverySummary())
		// Latency percentiles ride under the row they belong to — only
		// when the run carried histograms, so un-instrumented sweeps
		// (and the pinned goldens) render byte-identically.
		if r.Obs != nil && r.Obs.Datapath != nil {
			fmt.Fprintf(&b, "  %32s datapath %v | rtt %v\n", "", r.Obs.Datapath, r.Obs.RTT)
		}
	}
	return b.String()
}
