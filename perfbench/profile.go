package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one stack from a CPU profile, innermost frame first, with
// its sample count.
type cpuSample struct {
	frames []string
	weight int64
}

// attribute splits CPU samples across the layers. A sample belongs to
// the innermost mosquitonet/internal/<layer> frame on its stack, so a
// layer's self time includes the runtime work (allocation, maps) it
// calls. Samples with no repo frame go to runtime, samples whose only
// repo frames are the benchmark's own to bench, and samples in a repo
// package outside the layer list to other. The fractions sum to 1.
func attribute(samples []cpuSample) map[string]float64 {
	frac := map[string]float64{}
	for _, b := range selfBuckets {
		frac[b] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return frac
	}
	for _, s := range samples {
		frac[bucketOf(s.frames)] += float64(s.weight) / float64(total)
	}
	return frac
}

func bucketOf(frames []string) string {
	bench := false
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "mosquitonet/internal/"); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "mosquitonet.") || strings.HasPrefix(fn, "mosquitonet/") {
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// readCPUProfile decodes the samples of a gzipped pprof profile as
// runtime/pprof writes it (profile.proto), weighting each by its first
// value, the sample count.
func readCPUProfile(r io.Reader) ([]cpuSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = fields(data, func(num int, val uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			first := true
			err := fields(b, func(num int, val uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := varints(val, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value
					vs, err := varints(val, b)
					if first && len(vs) > 0 {
						s.weight, first = int64(vs[0]), false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fids []uint64
			err := fields(b, func(num int, val uint64, b []byte) error {
				switch num {
				case 1:
					id = val
				case 4: // Line
					return fields(b, func(num int, val uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fids
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, val uint64, _ []byte) error {
				switch num {
				case 1:
					id = val
				case 2:
					name = int64(val)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{weight: s.weight}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				cs.frames = append(cs.frames, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the top-level fields of one protobuf message. For a
// varint field fn gets its value; for a length-delimited field it gets
// the bytes (b != nil). Fixed-width fields are skipped.
func fields(data []byte, fn func(num int, val uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var val uint64
		var b []byte
		switch wire {
		case 0:
			val, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(data) < w {
				return errTruncated
			}
			data = data[w:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)] // non-nil even when empty
			data = data[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, val, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, whether it arrived
// as one value (b == nil) or packed (b holds the varints).
func varints(val uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{val}, nil
	}
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
