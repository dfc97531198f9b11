// Command perfbench is the repository benchmark: it stands up pspgw in front
// of three pspd shards in this process, drives one of three seeded
// workloads (share, browse, recover) through them, checks every byte it
// gets back, and prints the end-to-end metrics, or with -trace 1 the
// per-layer metrics. BENCHMARK.json at the repository root lists the
// workloads and metrics; run.sh builds and runs it from the repository
// root:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload browse --repeat 10 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix.
type workload interface {
	// setup builds the inputs (and catalog) from the seed.
	setup(b *bench) error
	// warm runs the untimed prefix of the op sequence; it returns the index
	// of the first timed op.
	warm(b *bench) int
	// measure runs the timed phase from op first.
	measure(b *bench, first int) timed
	// verify runs the byte oracles after timing stopped and returns how
	// many timed ops that succeeded returned wrong bytes.
	verify(b *bench) int
	// replay times the miss path of first-touch responses (traced runs);
	// it returns summed layer times in ns.
	replay(b *bench) map[string]float64
	// limit is the latency limit slo_ok_ratio counts against.
	limit() time.Duration
	// class names the work op i does: ops of one class do the same work
	// on the same input, so they are repeats of one another.
	class(b *bench, i int) string
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "share":
		return &shareLoad{}, nil
	case "browse":
		return &browseLoad{}, nil
	case "recover":
		return &recoverLoad{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want share, browse or recover)", name)
}

func main() {
	var cfg config
	var traceFlag, repeat int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "share, browse or recover")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "sizes the timed phase: about this long on the reference host")
	fs.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run")
	fs.IntVar(&cfg.ops, "ops", 0, "run exactly this many timed ops (smoke runs)")
	fs.StringVar(&cfg.spans, "spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	fs.IntVar(&repeat, "repeat", 0, "run N times on seeds seed..seed+N-1 and print each metric's median and quartiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if repeat > 0 {
		if err := repeatRuns(cfg, traceFlag, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	b := newBench(cfg)
	t0 := time.Now()
	cl, err := startCluster(b.tr)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	defer cl.close()
	b.cl = cl
	b.setupBoot = time.Since(t0)
	if err := w.setup(b); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	first := w.warm(b)
	setupS := b.setupSeconds()
	// Start every timed phase from a collected heap, so where the
	// collector's cycles fall in the timed phase does not vary from run to run.
	runtime.GC()
	before := cl.stats()
	retries0 := clientRetries(w)
	tm := w.measure(b, first)
	d := delta(before, cl.stats())
	retries := clientRetries(w) - retries0
	v0 := time.Now()
	bad := w.verify(b)
	b.verifyTime = time.Since(v0)

	attempted := len(tm.recs)
	failed := bad
	for _, r := range tm.recs {
		if !r.ok {
			failed++
		}
	}
	if d.divergences > 0 {
		b.mismatch("gateway counted %d replica divergences", d.divergences)
	}
	printStamp(cfg, b, attempted, failed)
	for _, m := range b.mismatches {
		fmt.Println("MISMATCH", m)
	}
	if b.mismatchCount > len(b.mismatches) {
		fmt.Printf("MISMATCH ... %d more\n", b.mismatchCount-len(b.mismatches))
	}
	res := &result{Correct: b.mismatchCount == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if cfg.trace {
		m, err := layerMetrics(b, w, tm, d, retries)
		if err != nil {
			return nil, err
		}
		res.Metrics = m
	} else {
		res.Metrics = endToEnd(b, w, tm, setupS, attempted, failed)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("fail_ratio %.6f (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	if lat := latencies(tm.recs, func(opRecord) bool { return true }); !cfg.trace {
		// Unscaled percentiles and rate are printed, not metrics: on a
		// shared host they swing with the other tenants' load far beyond
		// any useful bound (see README.md).
		fmt.Printf("unscaled p50_ms %.4f p90_ms %.4f", ms(quantile(lat, 0.50)), ms(quantile(lat, 0.90)))
		if len(lat) >= 1000 { // at least ten samples beyond p99
			fmt.Printf(" p99_ms %.4f", ms(quantile(lat, 0.99)))
		}
		fmt.Printf(" ops_per_s %.3f (n=%d)\n", float64(len(lat))/tm.elapsed.Seconds(), len(lat))
	}
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no op attempted")
	}
	return res, nil
}

// endToEnd computes the user-visible metrics of an untraced run. Times are
// scaled to the reference host's speed (hostScale); the unscaled ones are
// printed beside them.
func endToEnd(b *bench, w workload, tm timed, setupS float64, attempted, failed int) map[string]metric {
	limit := w.limit()
	inSLO := 0
	for _, r := range tm.recs {
		if r.ok && r.lat <= limit {
			inSLO++
		}
	}
	// A failed op (shed, error or wrong bytes) misses the limit too.
	inSLO -= failed - countNotOK(tm.recs)
	if inSLO < 0 {
		inSLO = 0
	}
	best := bestLatencies(tm, func(i int) string { return w.class(b, i) })
	var sum time.Duration
	for _, d := range best {
		sum += d
	}
	opMs := ms(sum) / float64(max(len(best), 1))
	cpuMs := ms(tm.cpu) / float64(max(attempted, 1))
	k := hostScale(tm.probes)
	fmt.Printf("host scale %.4f (median probe %.3f ms of %d, reference %.0f ms); unscaled op_ms %.4f setup_s %.4f; cpu_ms_per_op %.4f\n",
		k, ms(probeRef)/k, len(tm.probes), ms(probeRef), opMs, setupS, cpuMs)
	return map[string]metric{
		"op_ms":           {opMs * k, "ms"},
		"setup_s":         {setupS * k, "s"},
		"slo_ok_ratio":    {float64(inSLO) / float64(max(attempted, 1)), "ratio"},
		"alloc_mb_per_op": {float64(tm.allocs) / float64(max(attempted, 1)) / (1 << 20), "MiB"},
		"peak_rss_mb":     {peakRSSMiB(), "MiB"},
	}
}

// bestLatencies replaces each successful op's latency by the fastest
// latency of its class in the timed phase: a latency per op of the mix that
// a burst of load from other tenants only moves when it hits every repeat.
func bestLatencies(tm timed, class func(int) string) []time.Duration {
	best := map[string]time.Duration{}
	for _, r := range tm.recs {
		k := class(r.op)
		if d, seen := best[k]; r.ok && (!seen || r.lat < d) {
			best[k] = r.lat
		}
	}
	var out []time.Duration
	for _, r := range tm.recs {
		if r.ok {
			out = append(out, best[class(r.op)])
		}
	}
	return out
}

func countNotOK(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%g", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func spansPath(cfg config) string {
	if cfg.spans != "" {
		return cfg.spans
	}
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
}
