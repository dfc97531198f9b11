package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spanLayers are the layers whose self time the trace attributes, as
// <name>_ms per traced op. With trace.unattributed_ms they add up to
// trace.op_ms.
var spanLayers = []string{
	"imgplane.from_std", "jpegc.from_planar", "jpegc.normalize", "core.encrypt", "jpegc.encode", "core.params",
	"jpegc.decode", "jpegc.to_planar", "imgplane.decode", "imgplane.to_std",
	"core.decrypt", "core.reconstruct_coeff", "core.reconstruct_pixels",
	"gen.wait", "psp.client_gap", "cluster.gateway_self", "psp.shard", "psp.store",
	"trace.unattributed",
}

// replayLayers are timed by replaying the miss path of first-touch
// responses after the timed phase, reported per timed op.
var replayLayers = []string{
	"transform.planned", "transform.apply", "transform.apply_planar", "jpegc.miss_decode", "jpegc.miss_encode",
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(b *bench, w workload, tm timed, d statDelta, retries uint64) (map[string]metric, error) {
	spans := b.tr.snapshot()
	if err := writeSpans(spansPath(b.cfg), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	bd := attribute(spans)
	if err := bd.check(); err != nil {
		return nil, err
	}
	ops := float64(len(tm.recs))
	perOp := func(n uint64) float64 { return float64(n) / ops }
	perKop := func(n uint64) float64 { return 1000 * float64(n) / ops }
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	tops := float64(bd.ops)
	m := map[string]metric{}
	for _, name := range spanLayers {
		m[name+"_ms"] = metric{bd.selfNs[name] / tops / 1e6, "ms"}
	}
	m["trace.op_ms"] = metric{bd.opNs / tops / 1e6, "ms"}
	m["psp.client_ms"] = metric{bd.totalNs["psp.client"] / tops / 1e6, "ms"}
	m["psp.store_calls_per_op"] = metric{float64(bd.calls["psp.store"]) / tops, "1/op"}
	m["psp.client_retries_per_kop"] = metric{perKop(retries), "1/kop"}
	m["cluster.shard_requests_per_op"] = metric{perOp(d.shardRequests), "1/op"}
	m["cluster.hedges_per_kop"] = metric{perKop(d.hedges), "1/kop"}
	m["cluster.failovers_per_kop"] = metric{perKop(d.failovers), "1/kop"}
	m["admission.shed_ratio"] = metric{ratio(d.shed, d.admitted), "ratio"}
	m["servecache.variant_hit_ratio"] = metric{ratio(d.variantHits, d.variantMisses), "ratio"}
	m["servecache.coeff_hit_ratio"] = metric{ratio(d.coeffHits, d.coeffMisses), "ratio"}
	m["servecache.transforms_per_op"] = metric{perOp(d.transforms), "1/op"}
	m["servecache.decodes_per_op"] = metric{perOp(d.decodes), "1/op"}
	m["servecache.collapsed_per_kop"] = metric{perKop(d.collapsed), "1/kop"}
	m["servecache.evictions_per_kop"] = metric{perKop(d.evictions), "1/kop"}
	m["searchidx.queries_per_kop"] = metric{perKop(d.searchQueries), "1/kop"}
	var searchDurs []time.Duration
	for _, s := range spans {
		if s.Depth == depthShard && s.Op != 0 && strings.HasPrefix(s.Path, "GET /v1/search") {
			searchDurs = append(searchDurs, time.Duration(s.End-s.Start))
		}
	}
	sort.Slice(searchDurs, func(i, j int) bool { return searchDurs[i] < searchDurs[j] })
	m["searchidx.query_p50_ms"] = metric{ms(quantile(searchDurs, 0.5)), "ms"}

	replay := w.replay(b)
	for _, name := range replayLayers {
		m[name+"_ms"] = metric{replay[name] / ops / 1e6, "ms"}
	}

	var late []time.Duration
	for _, r := range tm.recs {
		late = append(late, r.late)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	m["gen.late_p99_ms"] = metric{ms(quantile(late, 0.99)), "ms"}
	tp := quantile(latencies(tm.recs, func(r opRecord) bool { return r.traced }), 0.5)
	up := quantile(latencies(tm.recs, func(r opRecord) bool { return !r.traced }), 0.5)
	overhead := 0.0
	if up > 0 {
		overhead = 100 * (float64(tp) - float64(up)) / float64(up)
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	// Times are scaled to the reference host's speed, as in an untraced run.
	k := hostScale(tm.probes)
	for name, v := range m {
		if v.Unit == "ms" {
			v.Value *= k
			m[name] = v
		}
	}
	fmt.Printf("trace: %d traced ops, %d spans written to %s\n", bd.ops, len(spans), spansPath(b.cfg))
	return m, nil
}

// printStamp prints the machine and run identity next to the numbers:
// absolute times differ across hosts.
func printStamp(cfg config, b *bench, attempted, failed int) {
	stamp := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"cpu":            cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit(),
		"source_sha256":  sourceDigest(),
		"warm_attempted": b.warmAttempted,
		"warm_ok":        b.warmAttempted - b.warmFailed,
		"warm_failed":    b.warmFailed,
		"attempted":      attempted,
		"ok":             attempted - failed,
		"failed":         failed,
	}
	for _, name := range b.setupOrder {
		var parts []string
		for _, d := range b.setupPhases[name] {
			parts = append(parts, fmt.Sprintf("%.3f", d.Seconds()))
		}
		stamp["setup_"+name+"_slices_s"] = strings.Join(parts, ",")
	}
	stamp["setup_boot_s"] = b.setupBoot.Seconds()
	stamp["verify_s"] = b.verifyTime.Seconds()
	line, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Println("stamp", string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the tree is a git work tree.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		id, err := os.ReadFile(filepath.Join(".git", r))
		if err != nil {
			return r
		}
		return strings.TrimSpace(string(id))
	}
	return ref
}

// sourceDigest hashes every Go source and go.mod of the tree, which
// identifies the code even where no git metadata exists.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not count
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// repeatRuns runs the benchmark n times, each in its own process on the
// next seed, and prints each metric's median and quartiles (Python's
// statistics.quantiles, exclusive method) with the quartile spread as a
// share of the median: the numbers the bounds in BENCHMARK.json are set
// and checked against.
func repeatRuns(cfg config, traceFlag, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		args := []string{"--workload", cfg.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", fmt.Sprint(traceFlag)}
		out, err := exec.Command(exe, args...).Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %8s  (n=%d, %s)\n", "metric", "q1", "median", "q3", "spread", n, cfg.workload)
	for _, k := range names {
		v := append([]float64(nil), values[k]...)
		sort.Float64s(v)
		q := quartiles(v)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %8.4f  %s\n", k, q[0], q[1], q[2], spread, units[k])
	}
	return nil
}

// quartiles is statistics.quantiles(data, n=4) (method "exclusive") of
// sorted data with at least two values.
func quartiles(data []float64) [3]float64 {
	var out [3]float64
	ld := len(data)
	if ld < 2 {
		for i := range out {
			out[i] = data[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
