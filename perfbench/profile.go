package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// probeLabel is the pprof label a crash-sweep helper puts on each branch's
// goroutines, so the samples of a runaway branch can be left out.
const probeLabel = "probe"

// watchdogProbe is the probeLabel value of a crash-sweep helper's watchdog
// goroutine: benchmark instrumentation, so its samples never count.
const watchdogProbe = "watchdog"

// attribute sums the CPU samples of gzipped pprof profiles by layer. Each
// sample goes to the package of its innermost frame in this repository; the
// benchmark's own code (package main) is "bench", and samples with no
// repository frame at all (GC workers, the scheduler) are "runtime".
// Samples labelled with a probe in skipProbes, or with watchdogProbe, are
// left out. It returns the sampling period too.
//
// The decoder reads the profile.proto wire format with the standard
// library only: it keeps the sample, location, function and string tables
// and skips every other field.
func attribute(profiles [][]byte, skipProbes map[string]bool) (map[string]int64, time.Duration, error) {
	samples := map[string]int64{}
	var period time.Duration
	for _, gz := range profiles {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		period = time.Duration(p.period)
		for _, s := range p.samples {
			if !skipProbes[s.probe] && s.probe != watchdogProbe {
				samples[p.layerOf(s.locations)] += s.count
			}
		}
	}
	return samples, period, nil
}

// layerOfPackage maps a repository package (the path below tracklog/) to
// its layer. Packages not listed are "other".
var layerOfPackage = map[string]string{
	"internal/sim":          "sim",
	"internal/disk":         "disk",
	"internal/geom":         "disk",
	"internal/sched":        "sched",
	"internal/trail":        "trail",
	"internal/stddisk":      "stddisk",
	"internal/raid":         "raid",
	"internal/wal":          "wal",
	"internal/txn":          "txn",
	"internal/kvdb":         "kvdb",
	"internal/bufcache":     "bufcache",
	"internal/tpcc":         "tpcc",
	"internal/crashexplore": "crashexplore",
	"internal/trace":        "observers",
	"internal/span":         "observers",
	"internal/telemetry":    "observers",
	"internal/timeline":     "observers",
	"internal/metrics":      "observers",
}

// frameLayer returns the layer of a function name, or "" for a function
// outside the repository.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "tracklog")
	if !ok || rest == "" || (rest[0] != '/' && rest[0] != '.') {
		return ""
	}
	// No package path in the module has a dot, so the first one ends it.
	pkg, _, _ := strings.Cut(rest, ".")
	if l, ok := layerOfPackage[strings.TrimPrefix(pkg, "/")]; ok {
		return l
	}
	return "other"
}

type profSample struct {
	locations []uint64 // leaf first
	count     int64
	probe     string // value of the probeLabel label, if any
}

type profile struct {
	period    int64
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
	labels    [][][2]uint64 // per sample; resolved once the string table is read
}

func (p *profile) layerOf(locations []uint64) string {
	for _, loc := range locations {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				if l := frameLayer(p.strings[i]); l != "" {
					return l
				}
			}
		}
	}
	return "runtime"
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fProfilePeriod   = 12
	fSampleLocation  = 1
	fSampleValue     = 2
	fSampleLabel     = 3
	fLabelKey        = 1
	fLabelStr        = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var values []uint64
			var labels [][2]uint64 // string indices of key and value
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fSampleLocation:
					return appendPacked(&s.locations, v, data)
				case fSampleValue:
					return appendPacked(&values, v, data)
				case fSampleLabel:
					var kv [2]uint64
					labels = append(labels, kv)
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLabelKey || num == fLabelStr {
							labels[len(labels)-1][num-1] = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // the "samples/count" value type
			}
			p.samples = append(p.samples, s)
			p.labels = append(p.labels, labels)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case fProfileString:
			p.strings = append(p.strings, string(data))
		case fProfilePeriod:
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.period <= 0 {
		return nil, errors.New("no sampling period")
	}
	for i, labels := range p.labels {
		for _, kv := range labels {
			if kv[0] < uint64(len(p.strings)) && kv[1] < uint64(len(p.strings)) && p.strings[kv[0]] == probeLabel {
				p.samples[i].probe = p.strings[kv[1]]
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, data the bytes of length-delimited ones.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0: // varint
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
