package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fstack"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// s5ObsConfig is a short lossy WAN point with every instrument on.
func s5ObsConfig(pcapDir string) Scenario5Config {
	return Scenario5Config{
		Modern: true,
		Link:   netem.Config{LossRate: 0.005, DelayNS: 5e6},
		Obs: testbed.ObsSpec{
			TraceEvents: 1 << 16,
			SampleNS:    1e6,
			Latency:     true,
			PcapDir:     pcapDir,
		},
	}
}

// TestScenario5Observability is the tentpole acceptance gate: a traced
// Scenario 5 run must yield a flight-recorder trace spanning at least 4
// event types from at least 3 layers, a valid Chrome trace-event JSON,
// sampled metrics, latency percentiles in the summary, and a non-empty
// link capture with the standard libpcap framing.
func TestScenario5Observability(t *testing.T) {
	dir := t.TempDir()
	r, err := RunScenario5(s5ObsConfig(dir), 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs == nil || r.Obs.Trace == nil {
		t.Fatal("traced run returned no observability state")
	}

	// Flight recorder: breadth over event types and layers.
	evs := r.Obs.Trace.Snapshot()
	if len(evs) == 0 {
		t.Fatal("trace recorded no events")
	}
	types := make(map[obs.EventType]bool)
	layers := make(map[string]bool)
	for _, e := range evs {
		types[e.Type] = true
		layers[e.Type.Layer()] = true
	}
	if len(types) < 4 {
		t.Errorf("trace spans %d event types, want >= 4 (%v)", len(types), types)
	}
	if len(layers) < 3 {
		t.Errorf("trace spans %d layers, want >= 3 (%v)", len(layers), layers)
	}

	// Chrome exporter: the output must be one valid JSON object with a
	// traceEvents array covering the recorded events.
	var buf bytes.Buffer
	if err := r.Obs.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) < len(evs) {
		t.Errorf("Chrome trace has %d events for %d recorded", len(decoded.TraceEvents), len(evs))
	}

	// Metrics sampler: the 100 ms run at a 1 ms interval must have
	// produced a timeseries.
	if n := r.Obs.Metrics.Samples(); n < 50 {
		t.Errorf("metrics sampled %d times, want >= 50", n)
	}

	// Latency percentiles surface in the human summary.
	out := FormatScenario5("traced", []Scenario5Result{r})
	for _, want := range []string{"p50=", "p99=", "p999=", "datapath", "rtt"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if r.Obs.Datapath.Count() == 0 || r.Obs.RTT.Count() == 0 {
		t.Errorf("latency histograms empty: datapath n=%d rtt n=%d",
			r.Obs.Datapath.Count(), r.Obs.RTT.Count())
	}

	// Link capture: standard libpcap magic and at least one record.
	data, err := os.ReadFile(filepath.Join(dir, "peer0.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 24 {
		t.Fatalf("pcap holds no records (%d bytes)", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != 0xa1b2c3d4 {
		t.Fatalf("pcap magic %#x, want 0xa1b2c3d4", magic)
	}
}

// TestScenario5ObsExport drives one sweep point through the export
// path: per-point Chrome trace, metrics CSV and JSON must land under
// their directories and parse.
func TestScenario5ObsExport(t *testing.T) {
	dir := t.TempDir()
	so := Scenario5Obs{
		TraceDir:   filepath.Join(dir, "trace"),
		MetricsDir: filepath.Join(dir, "metrics"),
		PcapDir:    filepath.Join(dir, "pcap"),
	}
	cfg := Scenario5Config{Modern: true, Link: netem.Config{LossRate: 0.005, DelayNS: 5e6}}
	r, err := runScenario5Point(cfg, 100e6, so)
	if err != nil {
		t.Fatal(err)
	}
	if r.Obs == nil {
		t.Fatal("export destinations did not switch instruments on")
	}
	label := scenario5Label(cfg)

	raw, err := os.ReadFile(filepath.Join(so.TraceDir, label+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("exported trace is empty")
	}

	csvRaw, err := os.ReadFile(filepath.Join(so.MetricsDir, label+".metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvRaw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics CSV has %d lines, want header + samples", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_ns,") {
		t.Errorf("metrics CSV header %q missing time_ns column", lines[0])
	}
	for _, col := range []string{".conns", ".accept_queue"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("metrics CSV header %q missing per-env %s gauge", lines[0], col)
		}
	}

	jsonRaw, err := os.ReadFile(filepath.Join(so.MetricsDir, label+".metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mj any
	if err := json.Unmarshal(jsonRaw, &mj); err != nil {
		t.Fatalf("exported metrics JSON invalid: %v", err)
	}

	if _, err := os.Stat(filepath.Join(so.PcapDir, label, "peer0.pcap")); err != nil {
		t.Errorf("per-point pcap missing: %v", err)
	}
}

// TestGateCrossingEvents wires the flight recorder into a Scenario 2
// intravisor and checks that gated F-Stack calls leave EvGateCrossing
// events carrying the running crossing count.
func TestGateCrossingEvents(t *testing.T) {
	clk := sim.NewVClock()
	s, err := NewScenario2(clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace(1024)
	s.Local.IV.SetTrace(tr, clk.Now)

	api := s.Apps[0]
	before := s.Local.IV.Crossings.Load()
	api.Socket(fstack.SockStream) // one gated call is enough
	crossed := s.Local.IV.Crossings.Load() - before
	if crossed == 0 {
		t.Fatal("gated call did not cross")
	}
	var got int
	for _, e := range tr.Snapshot() {
		if e.Type == obs.EvGateCrossing {
			got++
		}
	}
	if got != int(crossed) {
		t.Fatalf("recorded %d gate-crossing events for %d crossings", got, crossed)
	}
}

// TestScenario4ShardedStatsConsistency is the sharded-stats invariant:
// at many instants mid-run, the aggregate StackStats must equal the sum
// of the per-shard snapshots, every counter must be monotonic, and the
// retransmit total must equal its fast/SACK/RTO breakdown.
func TestScenario4ShardedStatsConsistency(t *testing.T) {
	s, err := NewScenario4(sim.NewVClock(), Scenario4Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ss := s.Sharded

	checks, mismatches := 0, 0
	var prevTotal uint64
	iter := 0
	visitHook = func(now int64, active bool) {
		iter++
		if iter%64 != 0 {
			return
		}
		checks++
		agg := ss.Stats()
		sum := ss.ShardStats(0)
		for i := 1; i < ss.NumShards(); i++ {
			sh := ss.ShardStats(i)
			sum.Add(sh)
		}
		if agg != sum {
			mismatches++
			if mismatches == 1 {
				t.Errorf("at %d ns: aggregate %+v != per-shard sum %+v", now, agg, sum)
			}
		}
		if agg.Retransmit != agg.FastRetransmit+agg.SACKRetransmit+agg.RTORetransmit {
			t.Errorf("at %d ns: retransmit %d != breakdown %d+%d+%d", now,
				agg.Retransmit, agg.FastRetransmit, agg.SACKRetransmit, agg.RTORetransmit)
		}
		total := agg.RxFrames + agg.TxFrames + agg.Retransmit + agg.DupAcks
		if total < prevTotal {
			t.Errorf("at %d ns: counters went backward (%d < %d)", now, total, prevTotal)
		}
		prevTotal = total
	}
	defer func() { visitHook = nil }()

	if _, err := Scenario4Bandwidth(s, LocalIsClient, 8, 100e6); err != nil {
		t.Fatal(err)
	}
	if checks < 10 {
		t.Fatalf("only %d mid-run checks fired; the hook did not observe the run", checks)
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mid-run aggregate mismatches", mismatches, checks)
	}
}
