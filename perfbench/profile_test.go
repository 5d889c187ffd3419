package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// protoWriter encodes the profile.proto subset parseProfile reads.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(num int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(num int, body []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(num)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(body)))
	w.b = append(w.b, body...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// synthProfile builds a gzipped profile whose samples have the given
// stacks: each stack is a list of locations, leaf first, and each
// location a list of function names, innermost (inlined) first. Sample
// i has count counts[i]. Every other sample is written unpacked.
func synthProfile(t *testing.T, stacks [][][]string, counts []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p protoWriter
	var sampleType protoWriter
	sampleType.varint(1, intern("samples"))
	sampleType.varint(2, intern("count"))
	p.bytes(1, sampleType.b)

	funcID := map[string]uint64{}
	var funcs protoWriter
	locID := uint64(0)
	for i, stack := range stacks {
		var locIDs []uint64
		for _, loc := range stack {
			locID++
			var l protoWriter
			l.varint(1, locID)
			l.varint(3, 0x1000+locID) // address: skipped by the parser
			for _, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f protoWriter
					f.varint(1, id)
					f.varint(2, intern(fn))
					f.varint(3, intern(fn))
					funcs.bytes(5, f.b)
				}
				var line protoWriter
				line.varint(1, id)
				line.varint(2, 42)
				l.bytes(4, line.b)
			}
			p.bytes(4, l.b)
			locIDs = append(locIDs, locID)
		}
		var s protoWriter
		if i%2 == 0 {
			s.bytes(1, packed(locIDs...))
			s.bytes(2, packed(uint64(counts[i]), uint64(counts[i])*10_000_000))
		} else {
			for _, id := range locIDs {
				s.varint(1, id)
			}
			s.varint(2, uint64(counts[i]))
			s.varint(2, uint64(counts[i])*10_000_000)
		}
		p.bytes(2, s.b)
	}
	p.b = append(p.b, funcs.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributionChargesInnermostProgramFrame(t *testing.T) {
	stacks := [][][]string{
		// A lock taken by the NIC under the stack's poll, under the
		// benchmark's event loop: nic, with a sync leaf.
		{{"sync.(*Mutex).Lock"}, {"repro/internal/nic.(*Port).step"},
			{"repro/internal/fstack.(*Stack).poll"}, {"main.(*tracer).drive"}},
		// A map lookup inlined into the timing wheel: the inlined frames
		// share one location, innermost first.
		{{"internal/runtime/maps.(*Map).getWithKey", "repro/internal/fstack/connscale.(*Wheel[go.shape.int32]).Insert"},
			{"repro/internal/fstack.(*Stack).syncTimer"}},
		// GC with no program frame.
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}},
		{{"repro/internal/iperf.(*Client).Step"}},
		{{"repro/internal/obs.(*Trace).Record"}, {"repro/internal/nic.(*Port).rx"}},
		{{"time.Since"}, {"main.(*tracer).begin"}, {"repro/internal/iperf.(*Server).Step"}},
		{{"runtime.mapaccess2_fast64"}, {"repro/internal/churn.(*Client).drain"}},
		{{"sync/atomic.(*Uint64).Add"}, {"repro/internal/intravisor.(*Gate).Call"}},
	}
	counts := []int64{5, 3, 2, 1, 1, 4, 2, 3}
	samples, err := parseProfile(synthProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[1].frames; len(got) != 3 || got[1] != "repro/internal/fstack/connscale.(*Wheel[go.shape.int32]).Insert" {
		t.Fatalf("inlined frames not expanded leaf first: %q", got)
	}
	a := attribute(samples)
	if a.total != 21 {
		t.Fatalf("total %d, want 21", a.total)
	}
	want := map[string]int64{
		"nic": 5, "connscale": 3, "runtime": 2, "app": 3, "other": 1, "bench": 4, "intravisor": 3,
	}
	var sum int64
	for _, m := range layerModules {
		if a.module[m] != want[m] {
			t.Errorf("%s: %d samples, want %d", m, a.module[m], want[m])
		}
		sum += a.module[m]
	}
	if sum != a.total {
		t.Errorf("module shares sum to %d samples, want every sample once (%d)", sum, a.total)
	}
	// The leaf classes re-count samples the modules already hold: the
	// sync samples sit in nic and intravisor, the maps ones in connscale
	// and app.
	if a.leaf["sync"] != 8 || a.leaf["maps"] != 5 {
		t.Errorf("leaf classes sync=%d maps=%d, want 8 and 5", a.leaf["sync"], a.leaf["maps"])
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var p protoWriter
	p.bytes(2, packed(1, 2, 3))
	if _, err := parseProfile(p.b[:len(p.b)-1]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
