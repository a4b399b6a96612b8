package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to attribute CPU samples to the package of their
// leaf function. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// pbFields decodes one message's fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = pbVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts returns the integers of a repeated field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// cpuByPackage sums a CPU profile's sampled time (nanoseconds) by the
// last path element of the leaf function's package: "sim", "memsim",
// "runtime", ...
func cpuByPackage(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	type sample struct{ loc, val uint64 }
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → leaf function id
	funcName := map[uint64]uint64{} // function id → string index
	for _, f := range fields {
		if f.num == 6 { // string_table
			strs = append(strs, string(f.b))
		}
	}
	valueIdx, nTypes := -1, 0
	for _, f := range fields {
		if f.num != 1 { // sample_type
			continue
		}
		sub, err := pbFields(f.b)
		if err != nil {
			return nil, err
		}
		for _, s := range sub {
			if s.num == 1 && int(s.v) < len(strs) && strs[s.v] == "cpu" {
				valueIdx = nTypes
			}
		}
		nTypes++
	}
	if valueIdx < 0 {
		return nil, errors.New("pprof: no cpu sample type")
	}
	for _, f := range fields {
		switch f.num {
		case 2: // sample
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var locs, vals []uint64
			for _, s := range sub {
				var xs []uint64
				if xs, err = pbInts(s); err != nil {
					return nil, err
				}
				switch s.num {
				case 1:
					locs = append(locs, xs...)
				case 2:
					vals = append(vals, xs...)
				}
			}
			if len(locs) > 0 && valueIdx < len(vals) {
				samples = append(samples, sample{locs[0], vals[valueIdx]})
			}
		case 4: // location
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			gotLine := false
			for _, s := range sub {
				switch {
				case s.num == 1:
					id = s.v
				case s.num == 4 && !gotLine: // first line = innermost frame
					lines, err := pbFields(s.b)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fn = l.v
						}
					}
					gotLine = true
				}
			}
			locFunc[id] = fn
		case 5: // function
			sub, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, s := range sub {
				switch s.num {
				case 1:
					id = s.v
				case 2:
					name = s.v
				}
			}
			funcName[id] = name
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := ""
		if si, ok := funcName[locFunc[s.loc]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		out[funcPackage(name)] += float64(s.val)
	}
	return out, nil
}

// funcPackage returns the last element of a function symbol's package
// path: "lazyp/internal/sim.(*Thread).Load64" → "sim".
func funcPackage(sym string) string {
	if i := strings.LastIndex(sym, "/"); i >= 0 {
		sym = sym[i+1:]
	}
	if i := strings.Index(sym, "."); i >= 0 {
		sym = sym[:i]
	}
	if sym == "" {
		return "unknown"
	}
	return sym
}
