package core

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/testbed"
)

// Scenario5Obs configures observability for a Scenario 5 sweep: where
// the per-point exports land, which also decides the instruments each
// point's bed carries. The zero value disables everything.
type Scenario5Obs struct {
	// TraceDir, when non-empty, receives one Chrome trace-event JSON
	// per point (<label>.trace.json), loadable in Perfetto.
	TraceDir string
	// MetricsDir, when non-empty, receives the metrics timeseries per
	// point as <label>.metrics.csv and <label>.metrics.json.
	MetricsDir string
	// PcapDir, when non-empty, receives one subdirectory per point
	// holding that run's per-peer link captures.
	PcapDir string
}

// scenario5DefaultTrace and scenario5DefaultSample size the flight
// recorder and the metrics sampler of a point that exports them.
const (
	scenario5DefaultTrace  = 65536
	scenario5DefaultSample = int64(1e6) // 1 ms virtual
)

// pointSpec resolves the ObsSpec for one labelled sweep point: export
// destinations imply their instruments, and captures go into a
// per-point subdirectory so points do not overwrite each other.
func (o Scenario5Obs) pointSpec(label string) testbed.ObsSpec {
	var spec testbed.ObsSpec
	if o.TraceDir != "" {
		spec.TraceEvents = scenario5DefaultTrace
	}
	if o.MetricsDir != "" {
		spec.SampleNS = scenario5DefaultSample
	}
	spec.Latency = o.TraceDir != "" || o.MetricsDir != ""
	if o.PcapDir != "" {
		spec.PcapDir = filepath.Join(o.PcapDir, label)
	}
	return spec
}

// export writes one point's trace and timeseries to the configured
// directories.
func (o Scenario5Obs) export(r Scenario5Result, label string) error {
	if r.Obs == nil {
		return nil
	}
	if o.TraceDir != "" && r.Obs.Trace != nil {
		if err := writeTo(o.TraceDir, label+".trace.json", func(f *os.File) error {
			return r.Obs.Trace.WriteChromeTrace(f)
		}); err != nil {
			return err
		}
	}
	if o.MetricsDir != "" && r.Obs.Metrics != nil {
		if err := writeTo(o.MetricsDir, label+".metrics.csv", func(f *os.File) error {
			return r.Obs.Metrics.WriteCSV(f)
		}); err != nil {
			return err
		}
		if err := writeTo(o.MetricsDir, label+".metrics.json", func(f *os.File) error {
			return r.Obs.Metrics.WriteJSON(f)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeTo creates dir/name and streams write into it.
func writeTo(dir, name string, write func(f *os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("core: exporting %s: %w", name, err)
	}
	return f.Close()
}

// scenario5Label names one sweep point for export filenames:
// mode_recovery_loss_rtt, e.g. "baseline_sack_loss0.25_rtt20ms".
func scenario5Label(cfg Scenario5Config) string {
	rec := "gbn"
	if cfg.Modern {
		rec = "sack"
	}
	return fmt.Sprintf("%s_%s_loss%.2f_rtt%dms", modeName(cfg.CapMode), rec, cfg.Link.LossRate*100, 2*cfg.Link.DelayNS/1e6)
}
