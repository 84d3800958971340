package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// selfShares folds a CPU profile into the percentage of sampled CPU time
// spent in each layer (see layerOf). The shares sum to 100.
func selfShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locations {
			stack = append(stack, p.locations[id]...)
		}
		byLayer[layerOf(stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, fmt.Errorf("%s: no CPU samples", path)
	}
	for l := range byLayer {
		byLayer[l] *= 100 / total
	}
	return byLayer, nil
}

// layerOf attributes one sampled stack, leaf first, to a layer. A stack
// with a garbage-collector frame anywhere is "gc". Otherwise the leaf
// frame's package decides: a simulator package names its layer and any
// other runtime frame is "runtime". Other standard-library code (sort,
// math/rand, ...) is billed to the nearest simulator frame that called
// it, and to "runtime" when there is none.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if funcLayer(fn) == "gc" {
			return "gc"
		}
	}
	for _, fn := range stack {
		if l := funcLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// funcLayer maps one function name to its layer, or "" for code that is
// billed to its caller.
func funcLayer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "cwnsim/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return ""
}

// gcFrames are the name prefixes of the collector's mark, sweep,
// scavenge and write-barrier code.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*sweepLocked)",
	"runtime.(*mspan).sweep", "runtime.wbBuf", "runtime.bulkBarrier",
}

// profile is the part of a pprof profile selfShares needs: each sample's
// stack as location IDs, leaf first, and each location's function names,
// innermost inlined frame first.
type profile struct {
	samples   []profSample
	locations map[uint64][]string
}

type profSample struct {
	locations []uint64
	value     int64 // the last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto message (the format
// runtime/pprof writes) with the standard library alone.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs      []string
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location -> function IDs
		funcNames = map[uint64]int64{}    // function -> string index
	)
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // sample
			var s profSample
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locations: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, f := range fns {
			idx := funcNames[f]
			if idx < 0 || int(idx) >= len(strs) {
				return nil, fmt.Errorf("function %d names string %d of %d", f, idx, len(strs))
			}
			p.locations[id] = append(p.locations[id], strs[idx])
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values, packed
// (wire type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
