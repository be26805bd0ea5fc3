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

// layerOf maps a Go package path to the layer its CPU time is charged to.
// Each ccsim package is its own layer, named after the package; the
// standard library outside the runtime is one layer. A package missing
// here — renamed or new — lands in "unattributed", so its time grows that
// share instead of vanishing.
var layerOf = map[string]string{
	"ccsim/internal/workload": "workload",
	"ccsim/internal/proc":     "proc",
	"ccsim/internal/core":     "core",
	"ccsim/internal/cache":    "cache",
	"ccsim/internal/network":  "network",
	"ccsim/internal/sim":      "sim",
	"ccsim/internal/fault":    "fault",
	"ccsim/internal/machine":  "machine",
	"ccsim/internal/memsys":   "memsys",
	"ccsim/internal/stats":    "stats",
	"ccsim/internal/syncprim": "syncprim",
	"ccsim":                   "ccsim",
	"ccsim/exp":               "exp",
}

// cpuLayers lists every layer a share is reported for, in output order;
// the shares sum to 1.
var cpuLayers = []string{
	"workload", "proc", "core", "cache", "network", "sim", "fault", "machine",
	"memsys", "stats", "syncprim", "ccsim", "exp", "std",
	"runtime.gc", "runtime.malloc", "runtime.map", "runtime.other",
	"unattributed",
}

// shareName is the metric that reports a layer's share: "cache.cpu_share"
// for a package layer, "runtime.gc_cpu_share" for a part of the runtime.
func shareName(l string) string {
	if strings.HasPrefix(l, "runtime.") {
		return l + "_cpu_share"
	}
	return l + ".cpu_share"
}

// pkgOf returns the package path of a symbol such as
// "ccsim/internal/cache.(*SLC).Lookup" or "runtime.mallocgc". Generic
// instantiations carry type arguments, themselves package-qualified, in
// brackets; they are cut off first.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// allocFuncs are the runtime's allocation entry points; time under them
// (zeroing and copying included) is allocation.
var allocFuncs = map[string]bool{
	"mallocgc": true, "newobject": true, "newarray": true,
	"makeslice": true, "growslice": true, "makemap": true, "makemap_small": true,
}

// runtimeLayer splits runtime time by what the runtime was doing: the
// runtime frames between the leaf and the first non-runtime caller decide.
// Garbage collection (mark workers, assists, sweeping, write barriers)
// wins over allocation, which wins over map operations.
func runtimeLayer(stack []string) string {
	kind := "runtime.other"
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if !isRuntime(pkg) {
			break
		}
		name := fn[len(pkg)+1:]
		switch {
		case strings.HasPrefix(name, "gc") || strings.HasPrefix(name, "bgsweep") ||
			strings.HasPrefix(name, "bgscavenge") || strings.HasPrefix(name, "markroot") ||
			strings.HasPrefix(name, "sweepone") || strings.HasPrefix(name, "wbBuf") ||
			strings.HasPrefix(name, "bulkBarrier") || name == "scanobject":
			return "runtime.gc"
		case allocFuncs[name]:
			kind = "runtime.malloc"
		case kind == "runtime.other" && (pkg == "internal/runtime/maps" ||
			strings.Contains(name, "mapaccess") || strings.Contains(name, "mapassign") ||
			strings.Contains(name, "mapdelete")):
			kind = "runtime.map"
		}
	}
	return kind
}

// layer charges one sampled stack, leaf first, to a layer by its leaf
// frame.
func layer(stack []string) string {
	if len(stack) == 0 {
		return "unattributed"
	}
	pkg := pkgOf(stack[0])
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if isRuntime(pkg) {
		return runtimeLayer(stack)
	}
	if first, _, _ := strings.Cut(pkg, "/"); pkg != "main" && !strings.Contains(first, ".") &&
		!strings.HasPrefix(pkg, "ccsim") {
		return "std"
	}
	return "unattributed"
}

// workloadIncl counts samples with a workload frame anywhere on the
// stack: stream generation's whole cost, including the allocation and
// copying the runtime does on its behalf, which leaf folding charges to
// the runtime.
const workloadIncl = "workload.incl"

// calls reports whether any frame of stack belongs to package pkg.
func calls(stack []string, pkg string) bool {
	for _, fn := range stack {
		if pkgOf(fn) == pkg {
			return true
		}
	}
	return false
}

// foldProfile reads a gzipped runtime/pprof CPU profile and returns the
// sample count charged to each layer (and to workloadIncl), plus the
// total.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		counts[layer(stack)] += s.count
		if calls(stack, "ccsim/internal/workload") {
			counts[workloadIncl] += s.count
		}
		total += s.count
	}
	return counts, total, nil
}

// profile is the subset of profile.proto the fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: the sample count
}

// decodeProfile parses the protobuf encoding of a pprof Profile message
// (github.com/google/pprof/proto/profile.proto), keeping samples,
// locations, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return repeated(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, sub, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name out of string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload.
func fields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var msg []byte
		switch key & 7 {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one value
// per field (msg nil) or packed into a length-delimited payload.
func repeated(v uint64, msg []byte, add func(uint64)) error {
	if msg == nil {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}
