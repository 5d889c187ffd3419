package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
)

// The golden files under testdata were captured from the pre-testbed
// constructors (the hand-wired NewBaselineEnv*/NewCVMEnv*/NewPeer*
// family) immediately before the migration to declarative specs. The
// spec-built topologies must reproduce every summary byte-identically:
// the redesign moves wiring, not behavior.

// skipUnderRace skips a golden run when the race detector is active:
// the runs are single-goroutine lockstep and their slowdown under the
// detector pushes the package past the test timeout.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("byte-exact golden run; nothing for the race detector, too slow under it")
	}
}

// assertGolden compares got against testdata/<name>, printing a
// line-anchored diff on mismatch.
func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w := "", ""
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d differs:\n  got:  %q\n  want: %q", name, i+1, g, w)
		}
	}
	if !t.Failed() {
		t.Fatalf("%s differs only in length: got %d bytes, want %d", name, len(got), len(want))
	}
}

// TestGoldenTable2 pins Table II — Baseline dual/single, Scenario 1,
// Scenario 2 uncontended and contended — against the pre-migration
// capture.
func TestGoldenTable2(t *testing.T) {
	skipUnderRace(t)
	blocks, err := RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "table2.golden", FormatTable2(blocks))
}

// TestGoldenScenario3 pins the device-gate layout's bandwidth summary.
func TestGoldenScenario3(t *testing.T) {
	skipUnderRace(t)
	var b strings.Builder
	for _, dir := range []Direction{LocalIsServer, LocalIsClient} {
		s, err := NewScenario3(sim.NewVClock())
		if err != nil {
			t.Fatal(err)
		}
		res, err := BandwidthPair(s, dir)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "SCENARIO 3 — %s\n", dir)
		for _, r := range res {
			fmt.Fprintf(&b, "  %v\n", r)
		}
	}
	assertGolden(t, "scenario3.golden", b.String())
}

// TestGoldenScenario4 pins a short sharding sweep (1 and 4 shards,
// 8 flows, both modes).
func TestGoldenScenario4(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario4Sweep([]int{1, 4}, 8, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario4.golden", FormatScenario4(results))
}

// TestGoldenScenario5 pins a short WAN loss sweep (0 and 0.5 % i.i.d.
// loss, 20 ms RTT, 100 Mbit/s bottleneck, both modes and both stacks).
func TestGoldenScenario5(t *testing.T) {
	skipUnderRace(t)
	results, err := RunScenario5LossSweep([]float64{0, 0.005}, 10e6, 100e6, "", 300e6, Scenario5Obs{})
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "scenario5.golden", FormatScenario5("golden loss sweep", results))
}

// TestGoldenScenario9 pins a short request/response sweep: one
// open-loop and one closed-loop point per protocol on a clean link,
// both modes. Per-request quantiles are merged across two shards, so
// any steering, epoll-ordering or histogram-merge drift shows up as a
// byte diff.
func TestGoldenScenario9(t *testing.T) {
	skipUnderRace(t)
	var b strings.Builder
	for _, proto := range []string{"http", "dns"} {
		open, err := RunScenario9RateSweep(proto, 2, 8, []float64{4000}, netem.Config{}, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatScenario9(proto+" golden open-loop point", open))
		closed, err := RunScenario9ConcurrencySweep(proto, 2, []int{8}, netem.Config{}, 100e6)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatScenario9(proto+" golden closed-loop point", closed))
	}
	assertGolden(t, "scenario9.golden", b.String())
}

// TestGoldenScenario10 pins the fault-storm grid: {baseline, cheri} x
// {clean, 2-fault storm} on the short test configuration. Any drift in
// crash semantics, restart ordering, reconnect timing or the MTTR
// probe shows up as a byte diff in the dip/blast/MTTR columns.
func TestGoldenScenario10(t *testing.T) {
	skipUnderRace(t)
	results, _ := s10Results(t)
	assertGolden(t, "scenario10.golden", FormatScenario10(results))
}
