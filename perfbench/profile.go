package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run splits the CPU profile of its run spans by package. The
// module may only use the standard library, so this file decodes the few
// fields of the gzipped pprof protobuf it needs: samples with their stacks,
// values and string labels, locations, functions and the string table.

// profSample is one decoded sample: its stack (leaf first), its last value
// (CPU nanoseconds for a CPU profile) and its string labels.
type profSample struct {
	stack  []string
	value  int64
	labels map[string]string
}

// parseProfile decodes a pprof profile (gzipped or raw protobuf).
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				case 3:
					var kv [2]int64
					err := eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.vals) > 0 {
			ps.value = s.vals[len(s.vals)-1]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[f]))
			}
		}
		for _, kv := range s.labels {
			ps.labels[str(kv[0])] = str(kv[1])
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks the fields of one protobuf message, handing each to fn
// with its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerPkgs are the program's packages whose self time the traced run
// reports as <pkg>.self_frac.
var layerPkgs = []string{"vm", "simmem", "sched", "heap", "htm", "occ", "core", "gil",
	"db", "keyspace", "netsim", "webrick", "railslite", "rbregexp"}

// runtimeBuckets are the Go runtime costs reported as go.<name>_frac.
var runtimeBuckets = []string{"map", "memclr", "gc", "alloc"}

// bucketOf assigns one sample to a bucket: "go.gc" when the stack is a
// collector worker or assist, else by the leaf function: "go.memclr",
// "go.map", "go.alloc", the program package name, or "other".
func bucketOf(stack []string) string {
	for _, f := range stack {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
			"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain":
			return "go.gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	hasPrefix := func(ps ...string) bool {
		for _, p := range ps {
			if strings.HasPrefix(leaf, p) {
				return true
			}
		}
		return false
	}
	switch {
	case hasPrefix("runtime.memclr"):
		return "go.memclr"
	case hasPrefix("runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.strhash",
		"runtime.aeshash", "runtime.interhash", "runtime.nilinterhash", "runtime.f64hash"):
		return "go.map"
	case hasPrefix("runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.rawstring", "runtime.nextFreeFast", "runtime.heapSetType",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan)",
		"runtime.deductAssistCredit", "runtime.publicationBarrier", "runtime.concatstring"):
		return "go.alloc"
	case hasPrefix("runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.findObject",
		"runtime.scanblock", "runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.wbBuf",
		"runtime.bulkBarrierPreWrite", "runtime.sweep"):
		return "go.gc"
	}
	const prefix = "htmgil/internal/"
	if strings.HasPrefix(leaf, prefix) {
		rest := leaf[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return "other"
}

// bucketShares sums into buckets the values of the samples labelled
// key=val, and of the samples without that label (the runtime's background
// collector goroutines, which carry no labels), and returns each bucket's
// share of the total. Samples labelled key with another value are left out.
func bucketShares(samples []profSample, key, val string) map[string]float64 {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		if l, ok := s.labels[key]; ok && l != val {
			continue
		}
		sums[bucketOf(s.stack)] += s.value
		total += s.value
	}
	out := make(map[string]float64, len(sums))
	for b, v := range sums {
		out[b] = ratio(float64(v), float64(total))
	}
	return out
}
