package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileShares reads a CPU profile as written by runtime/pprof (gzipped
// profile.proto) and returns each host layer's share of the samples, in
// percent, with the sample count. A sample belongs to "gc" when any
// frame is a garbage-collector worker or assist; otherwise to the layer
// of its innermost repository frame, so runtime work (allocation,
// zeroing, channel handoff) is charged to the layer that asked for it;
// otherwise to "runtime".
func profileShares(data []byte) (map[string]float64, int64, error) {
	if len(data) == 0 {
		return map[string]float64{}, 0, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fn]))
			}
		}
		counts[classify(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for l, c := range counts {
		shares[l] = 100 * float64(c) / float64(total)
	}
	return shares, total, nil
}

// gcFrames mark samples spent collecting garbage.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot", "runtime.gcStart",
}

// layerPackages maps repository package paths to host layers; the
// longest matching prefix wins.
var layerPackages = map[string]string{
	"flexos/internal/net":           "net",
	"flexos/internal/core/gate":     "gate",
	"flexos/internal/rt":            "gate",
	"flexos/internal/mpk":           "gate",
	"flexos/internal/vmm":           "gate",
	"flexos/internal/cheri":         "gate",
	"flexos/internal/sched":         "sched",
	"flexos/internal/clock":         "clock",
	"flexos/internal/mem":           "mem",
	"flexos/internal/app":           "app",
	"flexos/internal/libc":          "app",
	"flexos/internal/core/build":    "build",
	"flexos/internal/core/explore":  "explore",
	"flexos/internal/core/coloring": "explore",
	"flexos/internal/core/compat":   "explore",
	"flexos/internal/core/spec":     "explore",
	"flexos/internal/metrics":       "metrics",
	"flexos/internal/trace":         "metrics",
	"flexos/internal/harness":       "bench",
	"flexos/perfbench":              "bench", // this package, as a test binary names it
	"main":                          "bench", // this package, as the benchmark binary names it
}

// classify assigns one sample's stack (innermost frame first) to a host
// layer.
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		pkg := packageOf(f)
		if pkg != "main" && !strings.HasPrefix(pkg, "flexos/") {
			continue
		}
		best := ""
		for prefix := range layerPackages {
			if (pkg == prefix || strings.HasPrefix(pkg, prefix+"/")) && len(prefix) > len(best) {
				best = prefix
			}
		}
		if best == "" {
			return "other"
		}
		return layerPackages[best]
	}
	return "runtime"
}

// packageOf returns the import path of a symbol such as
// "flexos/internal/core/gate.(*Registry).Call".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile is the part of profile.proto the shares need.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> name string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []sample
}

type sample struct {
	locs  []uint64
	count int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err := eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case profString:
			p.strings = append(p.strings, string(b))
		case profSample:
			var s sample
			var values []uint64
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				var err error
				switch f {
				case sampleLocation:
					s.locs, err = appendVarints(s.locs, v, bb)
				case sampleValue:
					values, err = appendVarints(values, v, bb)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values: one value for
// the unpacked encoding (b nil), all of b's varints for the packed one.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// eachField walks a protobuf message. Varint fields pass their value and
// a nil slice; length-delimited fields pass their bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
