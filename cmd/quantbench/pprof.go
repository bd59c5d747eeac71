package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// decoder below reads only what bucketing needs: each sample's location
// stack and sample count, each location's (inlined) function lines, and the
// function names.

// profSample is one stack of function names, leaf first, with the number of
// profiler ticks that hit it.
type profSample struct {
	stack []string
	count int64
}

// decodeProfile parses a gzipped CPU profile into its samples.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples   [][]byte
		locations = map[uint64][]uint64{}
		funcName  = map[uint64]int64{}
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			samples = append(samples, b)
		case 4:
			id, funcs, err := decodeLocation(b)
			if err != nil {
				return err
			}
			locations[id] = funcs
		case 5:
			id, name, err := decodeFunction(b)
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, b := range samples {
		var locs []uint64
		var values []int64
		err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
			switch num {
			case 1:
				locs = appendPacked(locs, wire, v, b)
			case 2:
				for _, u := range appendPacked(nil, wire, v, b) {
					values = append(values, int64(u))
				}
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
		for _, id := range locs {
			// A location's lines run from the innermost inlined function
			// out to the function it was inlined into.
			for _, fid := range locations[id] {
				s.stack = append(s.stack, name(fid))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeLocation(b []byte) (id uint64, funcs []uint64, err error) {
	err = eachField(b, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // Line
			return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				if num == 1 {
					funcs = append(funcs, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, funcs, err
}

func decodeFunction(b []byte) (id uint64, name int64, err error) {
	err = eachField(b, func(num int, wire int, v uint64, _ []byte) error {
		switch num {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
		return nil
	})
	return id, name, err
}

// appendPacked appends a repeated varint field that may be encoded packed
// (wire type 2) or one value per field (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerPackages maps package paths to layer buckets; the longest matching
// prefix wins.
var layerPackages = map[string]string{
	"quanterference":                      "core",
	"quanterference/internal/core":        "core",
	"quanterference/internal/par":         "core",
	"quanterference/internal/experiments": "core",
	"quanterference/internal/dataset":     "dataset",
	"quanterference/internal/sim":         "engine",
	"quanterference/internal/netsim":      "netsim",
	"quanterference/internal/lustre":      "lustre",
	"quanterference/internal/fault":       "lustre",
	"quanterference/internal/hw":          "lustre",
	"quanterference/internal/bb":          "lustre",
	"quanterference/internal/blockqueue":  "blockqueue",
	"quanterference/internal/disk":        "disk",
	"quanterference/internal/workload":    "workload",
	"quanterference/internal/monitor":     "monitor",
	"quanterference/internal/label":       "label",
	"quanterference/internal/nn":          "nn",
	"quanterference/internal/ml":          "ml",
	"quanterference/internal/online":      "online",
	"quanterference/internal/mitigate":    "online",
	"quanterference/internal/forecast":    "forecast",
	"quanterference/internal/serve":       "serve",
	"quanterference/internal/fleet":       "fleet",
	"quanterference/internal/shadow":      "shadow",
	"quanterference/internal/obs":         "obs",
	"quanterference/internal/stats":       "obs",
	"math/rand":                           "rng",
	"net":                                 "http",
	"net/http":                            "http",
	"net/textproto":                       "http",
	"net/url":                             "http",
	"mime":                                "http",
	"encoding/json":                       "http",
	"vendor/golang.org/x/net":             "http",
	"main":                                "bench",
	"quanterference/cmd/quantbench":       "bench", // main, as a test binary names it
	"runtime/pprof":                       "bench",
	"runtime/metrics":                     "bench",
	"testing":                             "bench",
}

// transparentPackages are general-purpose standard-library helpers. A frame
// in one of them is charged to the nearest caller that belongs to a layer,
// so the engine owns its container/heap work and the HTTP layer owns the
// strconv and reflect work of its JSON codec.
var transparentPackages = []string{
	"bufio", "bytes", "compress", "container", "context", "crypto", "encoding",
	"errors", "fmt", "hash", "internal", "io", "log", "maps", "math", "os",
	"reflect", "slices", "sort", "strconv", "strings", "sync", "syscall",
	"time", "unicode",
}

// gcFuncs are substrings of runtime function names that do allocation or
// garbage collection work.
var gcFuncs = []string{
	"gc", "GC", "malloc", "scanobject", "scanblock", "scanstack", "scanframe",
	"markroot", "greyobject", "findObject", "sweep", "Sweep", "mspan", "mcache",
	"mcentral", "mheap", "heapBits", "wbBuf", "bulkBarrier", "newobject",
	"newarray", "makeslice", "growslice", "makemap", "nextFreeFast", "memclrNoHeapPointers",
	"allocSpan", "refill", "scavenge", "pageAlloc", "typePointers", "spanOf",
	"deductAssistCredit", "profilealloc", "markBits", "stkbucket",
}

// funcPackage extracts the package path from a fully qualified function
// name such as "quanterference/internal/sim.(*Engine).Run".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments of a generic function may contain '/'
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a package path to its layer, the empty string when the
// package is unknown.
func layerOf(pkg string) string {
	best, layer := -1, ""
	for prefix, l := range layerPackages {
		if (pkg == prefix || strings.HasPrefix(pkg, prefix+"/")) && len(prefix) > best {
			best, layer = len(prefix), l
		}
	}
	return layer
}

func isTransparent(pkg string) bool {
	root := pkg
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		root = pkg[:i]
	}
	for _, t := range transparentPackages {
		if root == t {
			return true
		}
	}
	return false
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// bucketOf assigns one profile stack (leaf first) to exactly one layer. The
// leaf's layer wins; a standard-library helper or a non-GC runtime frame
// passes the sample up to its caller; allocation and GC runtime frames are
// "gc"; a stack of runtime frames only is "runtime"; anything else is
// "other".
func bucketOf(stack []string) string {
	sawRuntime := false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if isRuntime(pkg) {
			name := fn[len(pkg):]
			for _, g := range gcFuncs {
				if strings.Contains(name, g) {
					return "gc"
				}
			}
			sawRuntime = true
			continue
		}
		if pkg == "quanterference/internal/sim" &&
			(strings.Contains(fn, ".(*RNG).") || strings.HasSuffix(fn, ".NewRNG")) {
			return "rng"
		}
		if l := layerOf(pkg); l != "" {
			return l
		}
		if isTransparent(pkg) {
			continue
		}
		return "other"
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}

// profileBuckets turns a profile into per-layer sample shares, plus the
// share of samples with core.(*Framework).Predict anywhere on the stack.
func profileBuckets(samples []profSample) (shares map[string]float64, predictFrac float64, total int64) {
	counts := map[string]int64{}
	var predict int64
	for _, s := range samples {
		counts[bucketOf(s.stack)] += s.count
		total += s.count
		for _, fn := range s.stack {
			if fn == "quanterference/internal/core.(*Framework).Predict" {
				predict += s.count
				break
			}
		}
	}
	shares = map[string]float64{}
	for b, c := range counts {
		shares[b] = ratio(float64(c), float64(total))
	}
	return shares, ratio(float64(predict), float64(total)), total
}
