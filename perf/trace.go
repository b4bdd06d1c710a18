package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: now})
	t.mu.Unlock()
	return id
}

// record adds a span whose start and end the caller observed itself.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// cpuProfile is a CPU profile reduced to nanoseconds per attribution bucket.
type cpuProfile map[string]int64

// profileCPU runs fn under runtime/pprof and attributes its samples.
func profileCPU(fn func()) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return attribute(buf.Bytes())
}

// shares normalises the buckets to fractions of the profile's total.
func (p cpuProfile) shares() map[string]float64 {
	var total int64
	for _, v := range p {
		total += v
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for k, v := range p {
		out[k] = float64(v) / float64(total)
	}
	return out
}

// layerOfPackage maps a package below pet/internal (or "" for the facade
// and "main" for this harness) to its attribution bucket.
var layerOfPackage = map[string]string{
	"sim": "sim", "netsim": "netsim", "dcqcn": "dcqcn", "dctcp": "dcqcn",
	"workload": "workload", "topo": "topo", "nn": "nn", "mat": "nn",
	"rl": "ppo", "rl/ppo": "ppo", "core": "core", "fleet": "fleet",
	"serve": "serve", "bench": "bench", "": "bench", "main": "serve.client",
}

// layerOfFunc returns the bucket a function's own package belongs to, or ""
// when the function is not repository code.
func layerOfFunc(name string) string {
	const root = "pet/internal/"
	pkg := ""
	switch {
	case strings.HasPrefix(name, root):
		rest := name[len(root):]
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndexByte(rest, '/')
		dot := strings.IndexByte(rest[slash+1:], '.')
		if dot < 0 {
			return ""
		}
		pkg = rest[:slash+1+dot]
	case strings.HasPrefix(name, "pet."):
	case strings.HasPrefix(name, "main."):
		pkg = "main"
	default:
		return ""
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	return "other"
}

// attribute parses a gzipped profile.proto and charges each sample to the
// innermost frame that is repository code, so container/heap lands on sim
// and mallocgc on whoever allocated. Stacks with no repository frame are the
// HTTP server's connection goroutines (serve), the HTTP client's (the load
// generator) or the Go runtime (go.gc).
func attribute(gz []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string table index
		strs    []string
	)
	err = protoFields(raw, func(field int, varint uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, m)
				case 2:
					// The last value is CPU nanoseconds.
					if vals := appendVarints(nil, v, m); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
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
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := cpuProfile{}
	for _, s := range samples {
		layer, fallback := "", "go.gc"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				if layer = layerOfFunc(n); layer != "" {
					break stack
				}
				switch {
				case strings.HasPrefix(n, "net/http.(*conn)."):
					fallback = "serve"
				case strings.HasPrefix(n, "net/http.(*persistConn)."), strings.HasPrefix(n, "net/http.(*Transport)."):
					fallback = "serve.client"
				}
			}
		}
		if layer == "" {
			layer = fallback
		}
		out[layer] += s.value
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with the varint value
// (wire type 0) or the payload (wire type 2) of each field.
func protoFields(b []byte, fn func(field int, varint uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (msg) or not (v).
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}
