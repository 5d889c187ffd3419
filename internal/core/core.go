// Package core composes the substrates into the paper's systems and
// carries the experiment drivers. Topology construction is declarative:
// every scenario is a testbed.Spec — one spec struct per layout —
// handed to testbed.Build, which wires the simulated Morello box with
// its dual-port 82576 NIC, the CheriBSD-like kernel, the Intravisor
// with its cVMs, the DPDK+F-Stack userspace network stack, and the
// remote link partners. The three evaluation layouts of §III:
//
//   - Baseline: no CHERI. The stack and application run as ordinary
//     processes (MMU isolation), raw buffers, direct host syscalls.
//   - Scenario 1: full replication. Each of two cVMs contains the whole
//     application + F-Stack + DPDK stack on its own Ethernet port.
//   - Scenario 2: split. cVM1 runs F-Stack + DPDK; one (uncontended) or
//     two (contended) application cVMs call the F-Stack API through
//     cross-compartment gates, serialized by the stack mutex.
//
// Past the paper, four forward-looking layouts ride on the same spec
// model: Scenario 3 (§VI's future work — DPDK separated into its own
// cVM, gates on the datapath), Scenario 4 (multi-core scaling — a
// multi-queue RSS port with one CPU-budgeted stack shard per queue
// pair), Scenario 5 (a lossy high-BDP WAN behind a netem.Link,
// comparing go-back-N against SACK + window scaling), and Scenario 6
// (the composition: the sharded stack of Scenario 4 driving many flows
// through the impaired — and per-direction asymmetric — bottleneck of
// Scenario 5).
//
// The package also carries the experiment drivers that regenerate every
// table and figure of the evaluation (bandwidth.go, latency.go,
// fig3.go, table1.go), and the scenario registry (registry.go) the
// cherinet command consumes.
package core

import (
	"repro/internal/fstack"
	"repro/internal/testbed"
)

// The construction layer lives in internal/testbed; these aliases keep
// the measurement drivers and their callers on the familiar names.
type (
	// Setup is a wired topology (a testbed.Bed).
	Setup = testbed.Bed
	// Env is one network environment of the local box.
	Env = testbed.Env
	// Peer is a remote link partner.
	Peer = testbed.Peer
	// GatedAPI is an application compartment's gated F-Stack API view.
	GatedAPI = testbed.GatedAPI
)

// mask24, localIP and peerIP forward to the testbed addressing plan:
// port i uses subnet 10.0.i.0/24 with .1 local and .2 remote.
var mask24 = testbed.Mask24

func localIP(port int) fstack.IPv4Addr { return testbed.LocalIP(port) }
func peerIP(port int) fstack.IPv4Addr  { return testbed.PeerIP(port) }

// modeName labels a capability mode in reports and export file names.
func modeName(capMode bool) string {
	if capMode {
		return "cheri"
	}
	return "baseline"
}
