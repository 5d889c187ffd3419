package core

import (
	"fmt"
	"strings"

	"repro/internal/fstack"
	"repro/internal/hostos"
	"repro/internal/iperf"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Scenario 4 — multi-core scaling. The paper's port (and Scenarios
// 1-3) runs one poll loop over one RX/TX queue pair, so a single stack
// mutex serializes all protocol work; Scenario 2 shows that mutex
// becoming the bottleneck under contention. This scenario applies the
// standard DPDK remedy: the NIC is configured with K RX/TX queue pairs
// and symmetric-RSS flow steering, and a fstack.ShardedStack runs one
// independent stack shard (own loop, own mutex, own connection table)
// per queue pair. Each shard models one CPU core with a fixed
// packet-processing budget; the port is faster than one core, so
// aggregate goodput across M concurrent iperf flows scales with the
// shard count until the line, not any lock, is the limit.

const (
	// s4LineRate is the port speed: multi-gigabit, so one shard's core
	// cannot saturate it (a 1 GbE port would cap every shard count at
	// the same 941 Mbit/s and hide the scaling).
	s4LineRate = 4e9
	// s4CPUBps is one shard's packet-processing budget in bits of frame
	// data per second — one simulated core keeps up with roughly the
	// paper's 1 GbE figure, which is what the Morello box measured.
	s4CPUBps = 1e9
	// s4CPUWindow is how far ahead a core may be booked (a few
	// full-size frame times, like the device serializers).
	s4CPUWindow = 3 * 12304
	// s4RxFifoBytes is the per-queue RX packet buffer: multi-gigabit
	// parts ship hundreds of KiB (e.g. 512 KiB on the X550), which is
	// what lets TCP find a fair share when the line outruns the cores
	// instead of collapsing into tail-drop retransmit storms.
	s4RxFifoBytes = 512 << 10

	// Sized up from the default environment: K shards × 256-descriptor
	// rings plus M flows × (512+256) KiB socket buffers.
	s4SegSize  = 16 << 20
	s4CVMMem   = 24 << 20
	s4PoolBufs = 3072
	s4RingSize = 256

	// s4BasePort is the first iperf port; flow f uses s4BasePort+f.
	s4BasePort = uint16(5301)

	// s4RTOMin is the retransmission-timer floor on both ends.
	// Overloaded shards buffer several ms of frames (512 KiB draining
	// at ~1 Gbit/s ≈ 4 ms), so the simulator's default 2 ms floor would
	// make every sender time out spuriously; 20 ms keeps loss recovery
	// on the dup-ACK fast path, as FreeBSD's 30 ms rexmit_min does on
	// real buffered paths.
	s4RTOMin = int64(20e6)
)

// Scenario4Config parameterizes the multi-core scaling testbed.
type Scenario4Config struct {
	// Shards is the stack shard / NIC queue-pair count (1 disables RSS
	// and reproduces the single-queue layout over the same hardware).
	Shards int
	// CapMode runs the sharded stack inside a cVM with capability DMA
	// (the CHERI port); false is the Baseline process layout.
	CapMode bool
}

// Setup4 is a wired Scenario 4 topology: the bed's Sharded and Dev
// fields carry the sharded stack and its multi-queue device.
type Setup4 = testbed.Bed

// NewScenario4 builds the multi-core layout: one fast port with
// cfg.Shards RSS-steered queue pairs, a ShardedStack with one
// CPU-budgeted shard per pair, and one link partner.
func NewScenario4(clk hostos.Clock, cfg Scenario4Config) (*Setup4, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: scenario 4 needs at least one shard")
	}
	return testbed.Build(testbed.Spec{
		Clk: clk,
		Machine: testbed.MachineSpec{
			Name: "morello", Ports: 1, LineRateBps: s4LineRate,
			RxFifoBytes: s4RxFifoBytes, CapDMA: cfg.CapMode,
		},
		Compartments: []testbed.CompartmentSpec{
			{
				Name: "s4", CVM: cfg.CapMode, CVMName: "cvm1",
				CVMBytes: s4CVMMem, SegBytes: s4SegSize,
				PoolBufs: s4PoolBufs, PoolName: "s4-pkt",
				Ifs: []testbed.IfSpec{{Port: 0}},
				Stack: testbed.StackSpec{
					Shards: cfg.Shards, RingSize: s4RingSize,
					CPUBps: s4CPUBps, CPUWindowNS: s4CPUWindow,
					RTOMinNS: s4RTOMin,
				},
			},
		},
		Peers: []testbed.PeerSpec{
			{Port: 0, LineRateBps: s4LineRate, Stack: testbed.StackSpec{RTOMinNS: s4RTOMin}},
		},
	})
}

// engineerCport picks a source port for inbound flow f toward dport so
// that its tuple hashes to shard f modulo the shard count.
func engineerCport(s *Setup4, f int, dport uint16) uint16 {
	want := f % s.Sharded.NumShards()
	p := uint16(42000 + 97*f)
	for try := 0; try < 2048; try++ {
		if s.Dev.RxQueueOf(peerIP(0), localIP(0), fstack.ProtoTCP, p, dport) == want {
			return p
		}
		p++
	}
	return uint16(42000 + 97*f)
}

// Scenario4Result is one measured (shard count, direction) point.
// (Per-shard load shows up in ShardedStack.ShardStats and the device's
// QueueStats, which is what examples/multicore prints.)
type Scenario4Result struct {
	Shards  int
	Flows   int
	CapMode bool
	Dir     Direction
	Mbps    float64   // aggregate goodput over all flows
	PerFlow []float64 // per-flow goodput
	// Stats aggregates the local shards' counters; the retransmit
	// breakdown makes recovery behavior observable in every run.
	Stats fstack.StackStats
}

// Scenario4Bandwidth runs flows concurrent iperf flows for durationNS
// of virtual time and returns the aggregate local goodput. In
// LocalIsClient mode the local shards send (the steering oracle places
// each connection on the shard its ACK stream will hit); in
// LocalIsServer mode the local shards receive on listeners cloned
// across every shard, each SYN accepted wherever RSS lands it.
func Scenario4Bandwidth(s *Setup4, dir Direction, flows int, durationNS int64) (Scenario4Result, error) {
	clk, ok := s.Clk.(*sim.VClock)
	if !ok {
		return Scenario4Result{}, fmt.Errorf("core: scenario 4 runs need the virtual clock")
	}
	if flows < 1 {
		return Scenario4Result{}, fmt.Errorf("core: scenario 4 needs at least one flow")
	}
	res := Scenario4Result{Shards: s.Sharded.NumShards(), Flows: flows, CapMode: s.Envs[0].CVM != nil, Dir: dir}

	api := s.Sharded.API()
	var appSteppers []func(now int64)
	var localCli []*iperf.Client
	var localSrv []*iperf.Server
	for f := 0; f < flows; f++ {
		port := s4BasePort + uint16(f)
		if dir == LocalIsClient {
			cli := iperf.NewClient(peerIP(0), port, durationNS)
			localCli = append(localCli, cli)
			appSteppers = append(appSteppers, func(now int64) { cli.Step(api, now) })
		} else {
			srv := iperf.NewServer(fstack.IPv4Addr{}, port)
			localSrv = append(localSrv, srv)
			appSteppers = append(appSteppers, func(now int64) { srv.Step(api, now) })
		}
	}

	// The peer carries the far end of every flow on its single stack.
	var peerCli []*iperf.Client
	var peerSrv []*iperf.Server
	papi := s.Peers[0].Env.Loop.Locked()
	for f := 0; f < flows; f++ {
		port := s4BasePort + uint16(f)
		if dir == LocalIsClient {
			peerSrv = append(peerSrv, iperf.NewServer(fstack.IPv4Addr{}, port))
		} else {
			cli := iperf.NewClient(localIP(0), port, durationNS)
			// The load generator engineers its source ports so the
			// flows round-robin the receiver's RSS queues, as hardware
			// traffic generators (and RSS-aware client fleets) do;
			// unengineered ports land wherever the hash scatters them.
			cli.LocalPort = engineerCport(s, f, port)
			peerCli = append(peerCli, cli)
		}
	}
	s.Peers[0].Env.Loop.OnLoop = func(now int64) bool {
		for _, c := range peerCli {
			c.Step(papi, now)
		}
		for _, sv := range peerSrv {
			sv.Step(papi, now)
		}
		return true
	}

	done := func() bool {
		for _, c := range localCli {
			if !c.Done() {
				return false
			}
		}
		for _, sv := range localSrv {
			if !sv.Done() {
				return false
			}
		}
		for _, c := range peerCli {
			if !c.Done() {
				return false
			}
		}
		for _, sv := range peerSrv {
			if !sv.Done() {
				return false
			}
		}
		return true
	}
	timed := append(timedOf(localCli, localSrv), timedOf(peerCli, peerSrv)...)
	if err := runVirtual(clk, s, appSteppers, timed, done); err != nil {
		return res, err
	}

	for f := 0; f < flows; f++ {
		var rep iperf.Report
		if dir == LocalIsClient {
			if localCli[f].Err() != 0 {
				return res, fmt.Errorf("core: scenario 4 client %d failed: %v", f, localCli[f].Err())
			}
			rep = localCli[f].Report()
		} else {
			if localSrv[f].Err() != 0 {
				return res, fmt.Errorf("core: scenario 4 server %d failed: %v", f, localSrv[f].Err())
			}
			rep = localSrv[f].Report()
		}
		res.PerFlow = append(res.PerFlow, rep.Mbps())
		res.Mbps += rep.Mbps()
	}
	res.Stats = s.Sharded.Stats()
	return res, nil
}

// DefaultScenario4Duration is the per-measurement traffic time.
const DefaultScenario4Duration = int64(300e6)

// RunScenario4 measures one configuration end to end on a fresh
// virtual-time testbed.
func RunScenario4(cfg Scenario4Config, dir Direction, flows int, durationNS int64) (Scenario4Result, error) {
	s, err := NewScenario4(sim.NewVClock(), cfg)
	if err != nil {
		return Scenario4Result{}, err
	}
	return Scenario4Bandwidth(s, dir, flows, durationNS)
}

// RunScenario4Sweep measures aggregate goodput for every shard count in
// shardCounts, in both Baseline and capability mode.
func RunScenario4Sweep(shardCounts []int, flows int, durationNS int64) ([]Scenario4Result, error) {
	var cells []Scenario4Config
	for _, capMode := range []bool{false, true} {
		for _, k := range shardCounts {
			cells = append(cells, Scenario4Config{Shards: k, CapMode: capMode})
		}
	}
	return sweep(Parallelism(), cells, func(cfg Scenario4Config) (Scenario4Result, error) {
		return RunScenario4(cfg, LocalIsClient, flows, durationNS)
	}, func(cfg Scenario4Config) string {
		return fmt.Sprintf("shards=%d cap=%v", cfg.Shards, cfg.CapMode)
	})
}

// FormatScenario4 renders a sweep as a scaling table.
func FormatScenario4(results []Scenario4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO 4 — multi-core scaling: aggregate goodput vs stack shards\n")
	fmt.Fprintf(&b, "(port %.0f Gbit/s, one core ≈ %.0f Gbit/s of stack work, %s mode flows)\n",
		s4LineRate/1e9, s4CPUBps/1e9, LocalIsClient)
	base := map[bool]float64{}
	for _, r := range results {
		if r.Shards == 1 {
			base[r.CapMode] = r.Mbps
		}
	}
	fmt.Fprintf(&b, "  %-10s %8s %8s %14s %9s  %s\n", "Mode", "Shards", "Flows", "Mbit/s", "Speedup", "recovery")
	for _, r := range results {
		speedup := "-"
		if b1 := base[r.CapMode]; b1 > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Mbps/b1)
		}
		fmt.Fprintf(&b, "  %-10s %8d %8d %14.0f %9s  %s\n",
			modeName(r.CapMode), r.Shards, r.Flows, r.Mbps, speedup, r.Stats.RecoverySummary())
	}
	return b.String()
}
