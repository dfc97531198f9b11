package main

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
)

// gates is every perf bound the ledger must meet; `benchfmt -new PERF.json`
// (the last step of `make perf`) checks them all. Two forms:
//
//	NUM/DEN>=F[:unit]  value(NUM)/value(DEN) >= F; the unit defaults to ns/op
//	ROW<=F:unit        value(ROW) <= F (or >= F); the unit is required
//
// A row or metric the ledger lacks fails its gate: a bound that silently
// stops being measured is a regression too. Absolute ns/op depends on the
// host, so timings are bounded as ratios between rows of one ledger, or as
// latency percentiles with wide headroom.
var gates = []string{
	// codec: the megapixel protect+recover pipeline's memory. The budgets
	// guard against per-pixel allocation (millions of allocs/op) and the
	// unpooled 40 MB/op grids the fused write path replaced.
	"BenchmarkProtectRecoverPerMP<=2500:allocs/op",
	"BenchmarkProtectRecoverPerMP<=4194304:B/op",
	// jpegc: native 4:2:0 decode carries fewer coefficient bytes than the
	// 4:4:4-normalized pipeline.
	"BenchmarkDecodeNormalized420/BenchmarkDecodeNative420>=1.5:coeff-bytes/op",
	// psp: the streaming batch route against sequential uploads per core,
	// and the scaled-decode thumbnail against the full decode path.
	"BenchmarkUploadSequential/BenchmarkUploadBatch>=2",
	"BenchmarkServeTransformedCold/BenchmarkServeThumbnailCold>=5",
	// searchidx: indexed lookup at 10^5 signatures against brute force,
	// its recall@10 and its p99 (1 ms).
	"BenchmarkSearchScan100k/BenchmarkSearchLookup100k>=50",
	"BenchmarkSearchLookup100k>=0.9:recall-k10",
	"BenchmarkSearchLookup100k<=1000000:p99-ns",
	// load: the chaos load run's latency SLOs (250 ms) and zero unexpected
	// client-visible failures.
	"BenchmarkLoadHotGet<=250000000:p99-ns",
	"BenchmarkLoadThumbnail<=250000000:p99-ns",
	"BenchmarkLoadOverall>=1:ok-per-op",
}

// gate is one parsed line of the table; den is empty for an absolute bound.
type gate struct {
	row, den string
	op       string
	bound    float64
	unit     string
}

var gateRE = regexp.MustCompile(`^([^/<>=:]+)(?:/([^/<>=:]+))?(>=|<=)([0-9.]+)(?::(.+))?$`)

func parseGate(s string) (gate, error) {
	m := gateRE.FindStringSubmatch(s)
	if m == nil {
		return gate{}, fmt.Errorf("want NUM/DEN>=F[:unit] or ROW<=F:unit")
	}
	bound, err := strconv.ParseFloat(m[4], 64)
	if err != nil {
		return gate{}, err
	}
	g := gate{row: m[1], den: m[2], op: m[3], bound: bound, unit: m[5]}
	if g.unit == "" {
		if g.den == "" {
			return gate{}, fmt.Errorf("an absolute bound needs a unit")
		}
		g.unit = "ns/op"
	}
	return g, nil
}

// value reads the gate's metric from r; a zero reads as missing, since
// every gated metric of a real measurement is positive.
func (g gate) value(r Result) (float64, bool) {
	var v float64
	switch g.unit {
	case "ns/op":
		v = r.NsPerOp
	case "MB/s":
		v = r.MBPerS
	case "B/op":
		v = r.BytesPerOp
	case "allocs/op":
		v = r.AllocsPerOp
	default:
		v = r.Metrics[g.unit]
	}
	return v, v > 0
}

// checkGates checks every table line against rows, printing one line each,
// and reports whether any failed to parse, lacked its rows or metric, or
// missed its bound.
func checkGates(rows map[string]Result, table []string, w io.Writer) (failed bool) {
	for _, line := range table {
		g, err := parseGate(line)
		if err != nil {
			fmt.Fprintf(w, "gate %s: BAD GATE: %v\n", line, err)
			failed = true
			continue
		}
		got, ok := g.measure(rows)
		status := "ok"
		switch {
		case !ok:
			status = "MISSING row or " + g.unit
		case g.op == ">=" && got < g.bound, g.op == "<=" && got > g.bound:
			status = "BOUND MISSED"
		}
		if status != "ok" {
			failed = true
		}
		fmt.Fprintf(w, "gate %s: %.4g  %s\n", line, got, status)
	}
	return failed
}

// measure returns the gated quantity: the metric itself, or its ratio
// between the two rows.
func (g gate) measure(rows map[string]Result) (float64, bool) {
	num, ok := g.value(rows[g.row])
	if !ok || g.den == "" {
		return num, ok
	}
	den, ok := g.value(rows[g.den])
	if !ok {
		return 0, false
	}
	return num / den, true
}
