package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// exposition maps each series of a Prometheus text exposition, keyed
// exactly as written (name plus label set), to its value.
type exposition map[string]float64

// parseExposition reads the Prometheus text format: comments and blank
// lines are skipped, every other line is `series value`.
func parseExposition(text string) (exposition, error) {
	out := make(exposition)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns end − start per series of end; a series absent at start
// counts from zero.
func delta(start, end exposition) exposition {
	out := make(exposition, len(end))
	for k, v := range end {
		out[k] = v - start[k]
	}
	return out
}

// sum totals the series of metric name whose label sets contain every
// one of labels (each written `key="value"`).
func (e exposition) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range e {
		metric, rest, _ := strings.Cut(k, "{")
		if metric != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}
