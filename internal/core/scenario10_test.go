package core

import (
	"sync"
	"testing"

	"repro/internal/sim"
)

// s10TestConfig is a moderate fault storm: two faults against shard0
// well inside the measured window (seeded arrivals at ~139 ms and
// ~200 ms), light closed-loop load, three shards so the blast-radius
// assertion has two survivors to check.
func s10TestConfig(capMode bool, faults int) Scenario10Config {
	return Scenario10Config{
		Shards: 3, CapMode: capMode,
		Faults: faults, MTBFNS: 40e6,
		Conns: 2, DurationNS: 300e6,
	}
}

// s10Grid is the four-cell grid {baseline, cheri} x {clean, 2-fault
// storm} of s10TestConfig, run once sequentially and once on four
// workers. Every Scenario 10 test reads these two runs instead of
// re-running the grid.
var s10Grid struct {
	once     sync.Once
	seq, par []Scenario10Result
	err      error
}

// s10Results returns both runs of the shared grid, in runScenario10Cells
// order: capMode outer, faults (0, then 2) inner.
func s10Results(t *testing.T) (seq, par []Scenario10Result) {
	t.Helper()
	s10Grid.once.Do(func() {
		cfg := s10TestConfig(false, 2)
		if s10Grid.seq, s10Grid.err = runScenario10Cells(1, cfg); s10Grid.err != nil {
			return
		}
		s10Grid.par, s10Grid.err = runScenario10Cells(4, cfg)
	})
	if s10Grid.err != nil {
		t.Fatal(s10Grid.err)
	}
	return s10Grid.seq, s10Grid.par
}

// s10Cell returns one cell of the shared sequential run.
func s10Cell(t *testing.T, capMode, storm bool) Scenario10Result {
	t.Helper()
	seq, _ := s10Results(t)
	i := 0
	if capMode {
		i += 2
	}
	if storm {
		i++
	}
	return seq[i]
}

// TestScenario10Clean pins the fault-free reference: no faults means no
// supervisor, no losses, no resets — the fault plane must be inert.
func TestScenario10Clean(t *testing.T) {
	for _, capMode := range []bool{false, true} {
		r := s10Cell(t, capMode, false)
		if r.Faults != 0 || r.CapMode != capMode {
			t.Fatalf("cap=%v: grid cell is not the clean run: %+v", capMode, r)
		}
		if r.Completed == 0 || r.Completed != r.Issued {
			t.Fatalf("cap=%v: issued %d, completed %d", capMode, r.Issued, r.Completed)
		}
		if r.Lost != 0 || r.Resets != 0 || r.Restarts != 0 || r.GiveUps != 0 {
			t.Fatalf("cap=%v: clean run saw faults: %+v", capMode, r)
		}
		if r.FaultedDone == 0 || r.OtherMinDone == 0 {
			t.Fatalf("cap=%v: a shard served nothing: %+v", capMode, r)
		}
	}
}

// TestScenario10BlastRadiusContained is the capability-mode acceptance
// gate: faults aimed at shard0 cost shard0 requests and restarts, while
// every surviving shard's completions stay within 10% of the clean run.
func TestScenario10BlastRadiusContained(t *testing.T) {
	clean, storm := s10Cell(t, true, false), s10Cell(t, true, true)
	if !storm.CapMode {
		t.Fatalf("grid cell is not the capability-mode storm: %+v", storm)
	}
	if storm.Faults != 2 {
		t.Fatalf("injected %d faults, want 2", storm.Faults)
	}
	// Contained blast radius: one restart per fault, nothing fate-shares.
	if storm.Restarts != storm.Faults || storm.GiveUps != 0 {
		t.Fatalf("restarts %d giveups %d, want %d/0", storm.Restarts, storm.GiveUps, storm.Faults)
	}
	// The faulted shard pays: lost requests, resets, a visible dip.
	if storm.Lost == 0 || storm.Resets == 0 {
		t.Fatalf("faulted shard lost %d / reset %d, want both nonzero", storm.Lost, storm.Resets)
	}
	if storm.FaultedDone >= clean.FaultedDone {
		t.Fatalf("faulted shard completed %d >= clean %d", storm.FaultedDone, clean.FaultedDone)
	}
	// The survivors do not: within 10% of the clean run.
	if 10*storm.OtherMinDone < 9*clean.OtherMinDone {
		t.Fatalf("surviving shard dipped past 10%%: storm %d vs clean %d",
			storm.OtherMinDone, clean.OtherMinDone)
	}
	// Every fault's recovery was observed, and MTTR is sane: positive,
	// bounded by detection (request timeout) + capped backoff + slack.
	if storm.Recovered != storm.Faults {
		t.Fatalf("recovered %d of %d faults", storm.Recovered, storm.Faults)
	}
	if storm.MTTRMeanNS <= 0 || storm.MTTRMaxNS < storm.MTTRMeanNS {
		t.Fatalf("implausible MTTR mean=%d max=%d", storm.MTTRMeanNS, storm.MTTRMaxNS)
	}
	if storm.MTTRMaxNS > s10TimeoutNS+s10MaxBackoffNS+100e6 {
		t.Fatalf("MTTR max %d ns beyond timeout+backoff budget", storm.MTTRMaxNS)
	}
}

// TestScenario10BaselineFateShares is the baseline acceptance gate: the
// monolithic stack restarts whole — every shard traps on every fault,
// so the supervisor restarts shards x faults times and even the
// non-targeted shards lose requests.
func TestScenario10BaselineFateShares(t *testing.T) {
	clean, storm := s10Cell(t, false, false), s10Cell(t, false, true)
	if storm.CapMode {
		t.Fatalf("grid cell is not the baseline storm: %+v", storm)
	}
	if storm.Faults != 2 {
		t.Fatalf("injected %d faults, want 2", storm.Faults)
	}
	if want := storm.Faults * storm.Shards; storm.Restarts != want {
		t.Fatalf("restarts %d, want %d (every shard, every fault)", storm.Restarts, want)
	}
	// Fate sharing: the whole service dips, survivors included. The
	// per-fault outage is short (restart backoff + reset detection), so
	// the floor is modest — but a contained fault would leave the
	// non-targeted shards bit-identical, not merely close.
	if 50*storm.OtherMinDone >= 49*clean.OtherMinDone {
		t.Fatalf("baseline non-targeted shard only dipped from %d to %d, want > 2%%",
			clean.OtherMinDone, storm.OtherMinDone)
	}
	if storm.Completed >= clean.Completed {
		t.Fatalf("baseline storm completed %d >= clean %d", storm.Completed, clean.Completed)
	}
}

// TestScenario10Deterministic pins run-to-run determinism under the
// full storm machinery (crash, timeout reconnects, supervised
// restarts): the grid's two runs are struct-equal cell by cell.
func TestScenario10Deterministic(t *testing.T) {
	seq, par := s10Results(t)
	if len(seq) != 4 || len(par) != len(seq) {
		t.Fatalf("grid sizes %d and %d, want 4", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d: identical configs diverged:\n  a: %+v\n  b: %+v", i, seq[i], par[i])
		}
	}
}

// TestScenario10ParallelIdentical pins the host-parallelism contract on
// the four-cell grid: the formatted report is byte-identical whether
// the cells run sequentially or concurrently.
func TestScenario10ParallelIdentical(t *testing.T) {
	seq, par := s10Results(t)
	if FormatScenario10(seq) != FormatScenario10(par) {
		t.Fatalf("sequential and parallel grids diverged:\n%s\nvs\n%s",
			FormatScenario10(seq), FormatScenario10(par))
	}
}

func TestScenario10RejectsBadConfig(t *testing.T) {
	cases := []Scenario10Config{
		{Shards: 0, Conns: 2, DurationNS: 1e6},
		{Shards: 2, Conns: 0, DurationNS: 1e6},
		{Shards: 2, Conns: 2, Faults: 1, MTBFNS: 0, DurationNS: 1e6},
	}
	for i, cfg := range cases {
		if _, err := NewScenario10(sim.NewVClock(), cfg); err == nil {
			t.Fatalf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
}
