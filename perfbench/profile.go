package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution without a dependency: runtime/pprof writes a
// gzipped profile.proto, and the few fields attribution needs are
// decoded here by hand.

// profSample is one profile sample: its call stack, leaf first, with
// inlined frames expanded, and its sample count.
type profSample struct {
	frames []string
	count  int64
}

// layerModules are the modules a sample can be charged to, in report
// order. "app" covers iperf, churn and app; "other" covers the rest of
// internal/ (obs, stats, faultplane); "bench" is this benchmark's own
// code (its copy of core's event loop and its tracing); "runtime" takes
// samples with none of these on the stack (GC, the scheduler).
var layerModules = []string{
	"fstack", "connscale", "nic", "dpdk", "netem", "cheri", "intravisor", "hostos",
	"sim", "testbed", "core", "app", "other", "bench", "runtime",
}

// crossCutting are leaf-frame classes; they re-count samples already
// charged to a module.
var crossCutting = []string{"sync", "maps"}

const internalPrefix = "repro/internal/"

// moduleOf names the layer a frame belongs to, or "" when the frame is
// outside the program and the benchmark.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	switch pkg {
	case "fstack/connscale":
		return "connscale"
	case "iperf", "churn", "app":
		return "app"
	case "fstack", "nic", "dpdk", "netem", "cheri", "intravisor", "hostos", "sim", "testbed", "core":
		return pkg
	}
	return "other"
}

// leafClass names the cross-cutting class of a sample's leaf frame, or "".
func leafClass(fn string) string {
	for _, p := range []string{"sync.", "sync/atomic.", "internal/sync."} {
		if strings.HasPrefix(fn, p) {
			return "sync"
		}
	}
	if strings.HasPrefix(fn, "internal/runtime/maps.") || strings.HasPrefix(fn, "runtime.map") {
		return "maps"
	}
	return ""
}

// attribution is the sample count charged to each module (by innermost
// program frame) and to each cross-cutting leaf class.
type attribution struct {
	total  int64
	module map[string]int64
	leaf   map[string]int64
}

func attribute(samples []profSample) attribution {
	a := attribution{module: map[string]int64{}, leaf: map[string]int64{}}
	for _, s := range samples {
		a.total += s.count
		mod := "runtime"
		for _, fn := range s.frames {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		a.module[mod] += s.count
		if len(s.frames) > 0 {
			if c := leafClass(s.frames[0]); c != "" {
				a.leaf[c] += s.count
			}
		}
	}
	return a
}

// share is n's fraction of the attributed samples.
func (a attribution) share(n int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(n) / float64(a.total)
}

// parseProfile decodes a (gzipped) profile.proto into samples, using
// the first sample value (the sample count of a CPU profile).
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcName[fid]; ok && i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var values []int64
		err := eachField(b, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				return eachVarint(v, b, func(x uint64) { locs = append(locs, x) })
			case 2:
				return eachVarint(v, b, func(x uint64) { values = append(values, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(values) == 0 {
			continue
		}
		s := profSample{count: values[0]}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.frames = append(s.frames, name(f))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or bytes (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed (b != nil)
// or one per occurrence (v).
func eachVarint(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
