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

// layers is the ledger's vocabulary: the repository's own packages named
// as the stack from prng/bitstr up to server, then buckets for samples
// outside them. The shares of one profile over these names sum to 1.
var layers = []string{
	"prng", "bitstr", "crc", "signal", "detect", "air", "tagmodel", "sched",
	"aloha", "btree", "qtree", "metrics", "stats", "sim", "experiment",
	"report", "scenario", "deploy", "sweep", "jobs", "rescache", "server", "obs",
	"other",   // repro packages not named above
	"bench",   // this harness: the load generator and its checks
	"net",     // standard-library network stacks with no repro frame
	"gc",      // garbage-collector background work
	"runtime", // everything else: scheduler, idle spinning, syscalls
}

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// sample is one profile sample: a stack of function names, leaf first,
// and its CPU time in nanoseconds.
type sample struct {
	stack []string
	value int64
}

// layerOf charges a stack to the innermost repository frame on it, so a
// sample inside a standard-library call made by package X counts for X.
// Stacks with no repository frame are split into gc, net and runtime.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i >= 0 {
				rest = rest[:i]
			}
			if layerSet[rest] {
				return rest
			}
			return "other"
		}
		// The harness is package main, named repro/bench in its tests.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench.") {
			return "bench"
		}
		if strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/") {
			return "other"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"):
			return "gc"
		case strings.HasPrefix(fn, "net/http."), strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "internal/poll."):
			return "net"
		}
	}
	return "runtime"
}

// fold returns each layer's share of the samples' total CPU time and
// that total in nanoseconds. Every layer in layers has an entry.
func fold(samples []sample) (share map[string]float64, total int64) {
	byLayer := make(map[string]int64, len(layers))
	for _, s := range samples {
		byLayer[layerOf(s.stack)] += s.value
		total += s.value
	}
	share = make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			share[l] = float64(byLayer[l]) / float64(total)
		} else {
			share[l] = 0
		}
	}
	return share, total
}

// readProfile decodes a gzipped pprof profile, as runtime/pprof writes
// it, into samples valued by their "cpu" sample type. It reads the
// protobuf wire format directly so the harness needs only the standard
// library.
func readProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample type's name
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location → function IDs, innermost first
		funcName   = map[uint64]uint64{}   // function → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		out = append(out, sample{stack: stack, value: int64(s.values[vi])})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or payload (wire type 2).
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which encoders may write
// either packed (one payload) or as one varint per element.
func appendPacked(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
