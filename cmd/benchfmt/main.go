// Command benchfmt turns `go test -bench` output into the perf ledger,
// checks a ledger against the gate table, and compares two ledgers.
//
// Format mode (default) reads benchmark output from stdin or the named
// files and writes the ledger: the machine it was measured on (the `cpu:`
// header, the GOMAXPROCS suffix of the benchmark names and the Go version)
// and one row per benchmark, tagged with its layer (the last element of the
// `pkg:` header above it). Lines that are not headers or benchmark results
// are skipped. Repeated runs of a benchmark (`-count N`) collapse to the
// fastest, so rows are best-of-N:
//
//	go test -run '^$' -bench . -benchmem -count 3 ./internal/psp | benchfmt -o PERF.json
//
// Gate mode checks one ledger against every bound in gates.go and exits
// non-zero when a bound is missed or a row or metric it names is missing:
//
//	benchfmt -new PERF.json
//
// Compare mode diffs every row of two ledgers and exits non-zero when a row
// regressed by more than 10% in ns/op or allocs/op, or a baseline row is
// missing from the candidate:
//
//	benchfmt -old old.json -new new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// regressionThreshold is the ns/op and allocs/op growth compare mode
// tolerates before it reports a regression.
const regressionThreshold = 0.10

// Ledger is a perf report: the machine it was measured on and its rows.
type Ledger struct {
	Machine Machine  `json:"machine"`
	Rows    []Result `json:"rows"`
}

// Machine identifies where a ledger was measured; absolute timings only
// compare between ledgers from the same machine.
type Machine struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Result is one benchmark's parsed measurements.
type Result struct {
	Name        string             `json:"name"`
	Layer       string             `json:"layer"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	procSuffix = regexp.MustCompile(`-(\d+)$`)
)

// parse reads `go test -bench` output and returns its ledger, rows sorted
// by name. A benchmark appearing more than once (e.g. from `-count N`)
// keeps its fastest run — measurement noise on a shared box is purely
// additive, so best-of-N is the run closest to the true cost. The whole
// fastest line is kept, not per-metric minima, so a row is always one
// self-consistent measurement.
func parse(r io.Reader) (Ledger, error) {
	l := Ledger{Machine: Machine{Go: runtime.Version()}}
	byName := map[string]Result{}
	layer := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if v, ok := strings.CutPrefix(line, "pkg: "); ok {
			layer = path.Base(strings.TrimSpace(v))
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			l.Machine.CPU = strings.TrimSpace(v)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// The -GOMAXPROCS suffix (absent when it is 1) goes into the
		// machine stamp, so rows compare by logical benchmark name.
		name, procs := m[1], 1
		if s := procSuffix.FindStringSubmatch(name); s != nil {
			name = strings.TrimSuffix(name, s[0])
			procs, _ = strconv.Atoi(s[1])
		}
		if l.Machine.GOMAXPROCS == 0 {
			l.Machine.GOMAXPROCS = procs
		} else if procs != l.Machine.GOMAXPROCS {
			return Ledger{}, fmt.Errorf("benchfmt: %s ran at GOMAXPROCS %d, earlier rows at %d", name, procs, l.Machine.GOMAXPROCS)
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return Ledger{}, fmt.Errorf("benchfmt: bad iteration count in %q: %w", line, err)
		}
		res := Result{Name: name, Layer: layer, Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Ledger{}, fmt.Errorf("benchfmt: bad value %q in %q: %w", fields[i], line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "MB/s":
				res.MBPerS = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		if prev, ok := byName[name]; !ok || res.NsPerOp < prev.NsPerOp {
			byName[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return Ledger{}, err
	}
	for _, r := range byName {
		l.Rows = append(l.Rows, r)
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].Name < l.Rows[j].Name })
	return l, nil
}

func readLedger(file string) (Ledger, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return Ledger{}, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return Ledger{}, fmt.Errorf("benchfmt: %s: %w", file, err)
	}
	return l, nil
}

func (l Ledger) byName() map[string]Result {
	m := make(map[string]Result, len(l.Rows))
	for _, r := range l.Rows {
		m[r.Name] = r
	}
	return m
}

// compare prints a delta line per row of the baseline and reports whether
// any regressed beyond regressionThreshold in ns/op or allocs/op, or is
// missing from the candidate. Rows only in the candidate are listed as new.
func compare(oldL, newL Ledger, w io.Writer) (failed bool) {
	if oldL.Machine != newL.Machine {
		fmt.Fprintf(w, "machines differ: old %+v, new %+v\n", oldL.Machine, newL.Machine)
	}
	newR := newL.byName()
	oldR := oldL.byName()
	for _, o := range oldL.Rows {
		n, ok := newR[o.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "%-45s MISSING from the candidate\n", o.Name)
			failed = true
		case o.NsPerOp <= 0:
			fmt.Fprintf(w, "%-45s old ns/op is zero (skipped)\n", o.Name)
		default:
			ratio := n.NsPerOp/o.NsPerOp - 1
			status := "ok"
			if ratio > regressionThreshold {
				status = "REGRESSION(ns/op)"
				failed = true
			}
			allocs := ""
			if o.AllocsPerOp > 0 {
				aRatio := n.AllocsPerOp/o.AllocsPerOp - 1
				allocs = fmt.Sprintf("  %8.0f -> %8.0f allocs/op  %+7.2f%%", o.AllocsPerOp, n.AllocsPerOp, 100*aRatio)
				if aRatio > regressionThreshold {
					status = "REGRESSION(allocs/op)"
					failed = true
				}
			}
			fmt.Fprintf(w, "%-45s %14.0f -> %14.0f ns/op  %+7.2f%%%s  %s\n",
				o.Name, o.NsPerOp, n.NsPerOp, 100*ratio, allocs, status)
		}
	}
	for _, n := range newL.Rows {
		if _, ok := oldR[n.Name]; !ok {
			fmt.Fprintf(w, "%-45s new row, no baseline\n", n.Name)
		}
	}
	return failed
}

func main() {
	var (
		out     = flag.String("o", "", "write the ledger to this file (default stdout)")
		oldPath = flag.String("old", "", "baseline ledger to compare -new against")
		newPath = flag.String("new", "", "ledger to check against the gate table, or to compare with -old")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *oldPath != "" || *newPath != "" {
		if *newPath == "" || flag.NArg() != 0 {
			die(fmt.Errorf("benchfmt: -old needs -new, and neither takes positional files"))
		}
		newL, err := readLedger(*newPath)
		if err != nil {
			die(err)
		}
		var failed bool
		if *oldPath == "" {
			failed = checkGates(newL.byName(), gates, os.Stdout)
		} else {
			oldL, err := readLedger(*oldPath)
			if err != nil {
				die(err)
			}
			failed = compare(oldL, newL, os.Stdout)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		readers := make([]io.Reader, 0, flag.NArg())
		for _, name := range flag.Args() {
			f, err := os.Open(name)
			if err != nil {
				die(err)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}
	ledger, err := parse(in)
	if err != nil {
		die(err)
	}
	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		die(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		die(err)
	}
}
