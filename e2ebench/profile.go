package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is a gzipped profile.proto message. The benchmark decodes
// the few fields it needs itself rather than depend on a profile library:
// samples (location ids, values), locations (id, lines) and functions (id,
// name), plus the string table.

type pbLocation struct {
	funcs []uint64 // function ids, innermost inlined frame first
}

type profileData struct {
	samples [][]uint64 // location ids per sample, leaf first
	values  []int64    // the sample's last value: CPU nanoseconds
	labels  [][]int64  // label key string indexes per sample
	locs    map[uint64]pbLocation
	funcs   map[uint64]int64 // function id → name string index
	strs    []string
}

var errProto = errors.New("profile: malformed protobuf")

// pbField iterates the fields of one protobuf message.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errProto
}

func pbFields(b []byte, fn func(f pbField) error) error {
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		x, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{locs: map[uint64]pbLocation{}, funcs: map[uint64]int64{}}
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var locs, vals []uint64
			var keys []int64
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					locs, err = pbUints(locs, g)
				case 2:
					vals, err = pbUints(vals, g)
				case 3: // label
					err = pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							keys = append(keys, int64(h.v))
						}
						return nil
					})
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			p.samples = append(p.samples, locs)
			p.values = append(p.values, int64(vals[len(vals)-1]))
			p.labels = append(p.labels, keys)
		case 4: // location
			var id uint64
			var loc pbLocation
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							loc.funcs = append(loc.funcs, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = loc
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// stack returns sample i's function names, innermost first.
func (p *profileData) stack(i int) []string {
	var out []string
	for _, lid := range p.samples[i] {
		for _, fid := range p.locs[lid].funcs {
			if idx := p.funcs[fid]; idx >= 0 && idx < int64(len(p.strs)) {
				out = append(out, p.strs[idx])
			}
		}
	}
	return out
}

// isGC reports whether a frame belongs to the garbage collector's own work
// (background marking, mark assists, sweeping and scavenging).
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// cpuPackage names the layer a stack's CPU time counts against: "runtime_gc"
// for GC work, else the innermost colony/internal/<pkg> frame (so standard
// library and runtime calls count against the layer that made them),
// "driver" for the benchmark's own code, and "other" for stacks with none
// (scheduler, timers, network polling).
func cpuPackage(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "colony/internal/"); ok {
			pkg := rest
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
				pkg = pkg[i+1:]
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") {
			return "driver"
		}
	}
	return "other"
}

// samplerLabel is the profile label of the benchmark's gauge sampler.
const samplerLabel = "e2ebench"

// cpuByPackage sums the profile's CPU nanoseconds per cpuPackage, keeping
// the gauge sampler's samples apart as "sampler".
func cpuByPackage(p *profileData) map[string]int64 {
	out := map[string]int64{}
	for i := range p.samples {
		pkg := cpuPackage(p.stack(i))
		for _, k := range p.labels[i] {
			if k >= 0 && k < int64(len(p.strs)) && p.strs[k] == samplerLabel {
				pkg = "sampler"
			}
		}
		out[pkg] += p.values[i]
	}
	return out
}
