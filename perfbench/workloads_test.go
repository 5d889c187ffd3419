package main

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/testbed"
)

// TestOutputChecks feeds each workload's output check results just
// inside and just outside its limits, and checks how a failure counts.
func TestOutputChecks(t *testing.T) {
	link := netem.Config{RateBps: 100e6}
	s2 := &s2Bed{s: &testbed.Bed{Apps: make([]*testbed.GatedAPI, 2)}, dir: core.LocalIsServer}
	var churnDrops core.Scenario8Result
	churnDrops.Completed, churnDrops.ChurnNS = 100, 1e9
	churnDrops.Stats.SynDrops = 3
	cases := []struct {
		name        string
		o           outcome
		ok          bool
		ops, failed int
	}{
		{"wan at the bottleneck", wanOutcome(core.Scenario7Result{Mbps: 100, Link: link}), true, 2, 0},
		{"wan above the bottleneck", wanOutcome(core.Scenario7Result{Mbps: 100.5, Link: link}), false, 2, 2},
		{"wan moved nothing", wanOutcome(core.Scenario7Result{Link: link}), false, 2, 2},
		{"churn complete", churnOutcome(core.Scenario8Result{Completed: 100, ChurnNS: 1e9}), true, 100, 0},
		{"churn deferred", churnOutcome(core.Scenario8Result{Completed: 90, Deferred: 10, ChurnNS: 1e9}), false, 100, 10},
		{"churn syn drops", churnOutcome(churnDrops), false, 100, 3},
		{"churn idle segment", churnOutcome(core.Scenario8Result{Completed: 100, ChurnNS: 1e9, SegPerConn: 1}), false, 100, 100},
		{"churn nothing", churnOutcome(core.Scenario8Result{}), false, 1, 1},
		{"s2 at the line", s2.outcome([]core.BWResult{{Mbps: 500}, {Mbps: 500}}), true, 4, 0},
		{"s2 above the line", s2.outcome([]core.BWResult{{Mbps: 500}, {Mbps: 500.5}}), false, 4, 4},
		{"s2 one endpoint", s2.outcome([]core.BWResult{{Mbps: 470}}), false, 4, 4},
		{"s2 idle endpoint", s2.outcome([]core.BWResult{{Mbps: 470}, {}}), false, 4, 4},
	}
	for _, c := range cases {
		if (c.o.err == nil) != c.ok || c.o.ops != c.ops || c.o.failed != c.failed {
			t.Errorf("%s: err=%v ops=%d failed=%d, want ok=%v ops=%d failed=%d",
				c.name, c.o.err, c.o.ops, c.o.failed, c.ok, c.ops, c.failed)
		}
		tl := &tally{out: io.Discard}
		tl.record(c.o)
		if r := tl.result(nil); r.correct != c.ok || r.failed != c.failed || r.attempted != c.ops {
			t.Errorf("%s: result correct=%v attempted=%d failed=%d", c.name, r.correct, r.attempted, r.failed)
		}
	}
}
