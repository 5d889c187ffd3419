package core

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestRegistryLookupAndList(t *testing.T) {
	for _, name := range []string{"table2", "scenario4", "scenario6", "fig3"} {
		e, ok := LookupScenario(name)
		if !ok || e.Name != name || e.Desc == "" || e.Bind == nil {
			t.Fatalf("registry entry %q broken: %+v ok=%v", name, e, ok)
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	list := FormatScenarioList()
	for _, e := range Registry {
		if !strings.Contains(list, e.Name) || !strings.Contains(list, e.Desc) {
			t.Fatalf("list missing %q:\n%s", e.Name, list)
		}
	}
}

func TestRegistrySuggestNearMisses(t *testing.T) {
	sugg := SuggestScenarios("scenaro5")
	if len(sugg) == 0 || sugg[0] != "scenario5" {
		t.Fatalf("scenaro5 suggestions: %v", sugg)
	}
	// A prefix matches everything it prefixes.
	sugg = SuggestScenarios("fig")
	if len(sugg) < 4 {
		t.Fatalf("fig suggestions: %v", sugg)
	}
	if got := SuggestScenarios("zzzzzz"); len(got) != 0 {
		t.Fatalf("nonsense matched: %v", got)
	}
}

// registryFlags is every experiment's flag surface with the default
// each flag had when all experiments shared one flag set: per entry,
// exactly the flags it defines, and their defaults.
var registryFlags = map[string]map[string]any{
	"fig3":      {},
	"table1":    {},
	"table2":    {},
	"fig4":      {"iters": 100_000, "interval": int64(20_000), "payload": 1448},
	"fig5":      {"iters": 100_000, "interval": int64(20_000), "payload": 1448},
	"fig6":      {"iters": 100_000, "interval": int64(20_000), "payload": 1448},
	"scenario3": {},
	"scenario4": {"shards": 4, "flows": 8, "duration": int64(300e6)},
	"scenario5": {"loss": 0.01, "delay": int64(10e6), "rate": 1e8, "cc": "", "s5duration": int64(1_000e6),
		"trace": "", "metrics": "", "pcap": ""},
	"scenario6": {"shards": 4, "flows": 8, "mode": "upload", "ackrate": 0.0, "cc": "", "s6duration": int64(300e6)},
	"scenario7": {"cc": "", "rate": 1e8, "s7duration": int64(30_000e6)},
	"scenario8": {"conns": 100_000, "rate": 50_000.0, "shards": 4, "s8duration": int64(1_000e6)},
	"scenario9": {"proto": "", "rate": 20_000.0, "conns": 32, "loss": 0.01, "delay": int64(1e7),
		"shards": 4, "s9duration": int64(500e6)},
	"scenario10": {"shards": 4, "faults": 4, "mtbf": int64(60e6), "conns": 4, "s10duration": int64(600e6)},
}

// bindEntry binds a registered entry to a fresh, quiet FlagSet.
func bindEntry(t *testing.T, name string) (*flag.FlagSet, func(io.Writer) error) {
	t.Helper()
	e, ok := LookupScenario(name)
	if !ok {
		t.Fatalf("no entry %q", name)
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, e.Bind(fs)
}

// TestRegistryFlagDefaults pins each experiment's flags: the set it
// defines and every default.
func TestRegistryFlagDefaults(t *testing.T) {
	if len(registryFlags) != len(Registry) {
		t.Fatalf("flag table covers %d entries, registry has %d", len(registryFlags), len(Registry))
	}
	for _, e := range Registry {
		want, ok := registryFlags[e.Name]
		if !ok {
			t.Fatalf("no flag table for %q", e.Name)
		}
		fs, _ := bindEntry(t, e.Name)
		n := 0
		fs.VisitAll(func(f *flag.Flag) {
			n++
			def, ok := want[f.Name]
			if !ok {
				t.Errorf("%s defines unexpected flag -%s", e.Name, f.Name)
				return
			}
			if got := fmt.Sprint(def); f.DefValue != got {
				t.Errorf("%s -%s default %s, want %s", e.Name, f.Name, f.DefValue, got)
			}
		})
		if n != len(want) {
			t.Errorf("%s defines %d flags, want %d", e.Name, n, len(want))
		}
	}
}

// TestRegistryRejectsUnreadFlag checks that an experiment refuses a flag
// it does not read instead of ignoring it.
func TestRegistryRejectsUnreadFlag(t *testing.T) {
	fs, _ := bindEntry(t, "scenario5")
	if err := fs.Parse([]string{"-conns", "3"}); err == nil {
		t.Fatal("scenario5 accepted -conns")
	}
	fs, _ = bindEntry(t, "scenario7")
	if err := fs.Parse([]string{"-cc", "vegas"}); err == nil {
		t.Fatal("scenario7 accepted an unregistered -cc")
	}
}

// TestRegistryValidatesBeforeRunning checks that a bad flag value fails
// the run before any sweep cell is built: the error names the flag and
// no report is written.
func TestRegistryValidatesBeforeRunning(t *testing.T) {
	fs, run := bindEntry(t, "scenario8")
	if err := fs.Parse([]string{"-rate", "0"}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(&out)
	if err == nil || !strings.Contains(err.Error(), "-rate") {
		t.Fatalf("scenario8 -rate 0: err %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("scenario8 -rate 0 wrote a report:\n%s", out.String())
	}
}

// TestRegistryListNamesBoundFlags checks that `cherinet list` prints,
// for every entry, exactly the flags that entry defines.
func TestRegistryListNamesBoundFlags(t *testing.T) {
	lines := strings.Split(FormatScenarioList(), "\n")
	for i, e := range Registry {
		var want []string
		for name := range registryFlags[e.Name] {
			want = append(want, "-"+name)
		}
		slices.Sort(want)
		flags := strings.Join(want, " ")
		if flags == "" {
			flags = "-"
		}
		// Line 0 is the header; each entry takes a name and a flags line.
		got := strings.TrimSpace(lines[2+2*i])
		if got != "flags: "+flags {
			t.Errorf("%s list line %q, want flags: %s", e.Name, got, flags)
		}
	}
}
