package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clients is the most concurrent clients (and client connections) the
// benchmark uses: the core count of the host it was sized on.
const clients = 2

// minRepeats is the fewest times a run repeats each op of the sequence; the
// latency metrics take each op's fastest repeat.
const minRepeats = 3

// setupSlices is how many equal slices each set-up phase runs in; setup_s
// takes the median slice time of each phase times the slice count, so one
// stall on a shared host does not move it.
const setupSlices = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops, when positive, runs exactly that many timed ops (and a warm-up
	// scaled down to match) instead of the ops timedOps sizes: the smoke tests.
	ops   int
	spans string // where the traced run writes its spans
}

// bench is the state one run shares across its phases.
type bench struct {
	cfg    config
	tr     *tracer // nil unless tracing
	cl     *liveCluster
	client *http.Client // the benchmark's own connections to the gateway

	setupBoot   time.Duration
	setupPhases map[string][]time.Duration
	setupOrder  []string

	warmAttempted, warmFailed int
	verifyTime                time.Duration

	mu            sync.Mutex
	mismatches    []string
	mismatchCount int
}

func newBench(cfg config) *bench {
	b := &bench{cfg: cfg, setupPhases: map[string][]time.Duration{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	if b.tr != nil {
		rt = opTransport{base: rt}
	}
	b.client = &http.Client{Transport: rt}
	return b
}

// setupPhase runs f over n items in setupSlices contiguous slices, each on
// both workers, and times every slice. Callers order items so that every
// slice holds the same mix of work.
func (b *bench) setupPhase(name string, n int, f func(i int) error) error {
	var mu sync.Mutex
	var first error
	for s := 0; s < setupSlices; s++ {
		var idx []int
		for i := s * n / setupSlices; i < (s+1)*n/setupSlices; i++ {
			idx = append(idx, i)
		}
		t0 := time.Now()
		forEach(len(idx), func(j int) {
			if err := f(idx[j]); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("%s item %d: %w", name, idx[j], err)
				}
				mu.Unlock()
			}
		})
		b.setupPhases[name] = append(b.setupPhases[name], time.Since(t0))
		if first != nil {
			return first
		}
	}
	b.setupOrder = append(b.setupOrder, name)
	return nil
}

// setupSeconds is the boot time plus, per phase, the median slice time
// times the slice count.
func (b *bench) setupSeconds() float64 {
	total := b.setupBoot.Seconds()
	for _, name := range b.setupOrder {
		d := append([]time.Duration(nil), b.setupPhases[name]...)
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		total += float64(len(d)) * d[len(d)/2].Seconds()
	}
	return total
}

// mismatch records an oracle failure, printing the first few in full.
func (b *bench) mismatch(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mismatchCount++
	if len(b.mismatches) < 8 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

// opRecord is one timed op.
type opRecord struct {
	op     int           // index in the op sequence
	lat    time.Duration // from due (open loop) or start (closed loop) to done
	late   time.Duration // open loop: how late the generator sent it
	ok     bool
	traced bool
}

// traced reports whether op i runs with spans: in a traced run a
// pseudo-random half of the ops (independent of any pattern in the op
// index), so the untraced half measures the tracing overhead in the same
// run.
func (b *bench) traced(i int) bool { return b.tr != nil && mix64(uint64(i), 0x7472616365)&1 == 1 }

// timed is the outcome of a timed phase.
type timed struct {
	recs    []opRecord
	elapsed time.Duration
	allocs  uint64          // heap bytes allocated, whole process
	cpu     time.Duration   // user+system CPU time, whole process
	probes  []time.Duration // host probe times, one per segment boundary
}

// opFunc runs op i (traced when sp is set). The op's latency ends when it
// returns; after, if set, then runs untimed (checksums of its output).
type opFunc func(i int, sp *opSpans) (after func(), err error)

// closedLoop runs the timed ops first, first+1, ... (b.timedOps of them) on
// `clients` workers, each starting its next op when the previous one
// returns. It keeps every CPU busy, and so does its probe.
func (b *bench) closedLoop(first, period int, rate float64, op opFunc) timed {
	return b.segmented(b.timedOps(rate, period), rate, clients, func(s0, s1 int) []opRecord {
		var mu sync.Mutex
		next := first + s0
		var recs []opRecord
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= first+s1 {
						return
					}
					rec, after := b.runOp(op, i, time.Now())
					mu.Lock()
					recs = append(recs, rec)
					mu.Unlock()
					if after != nil {
						after()
					}
				}
			}()
		}
		wg.Wait()
		return recs
	})
}

// openLoop sends the timed ops first, first+1, ... (b.timedOps of them) at
// Poisson arrival times of the given rate, placed as sorted uniform times
// over their count divided by the rate: a Poisson process conditioned on
// its count, so the op sequence has the same length on every run. Each
// segment starts with its first arrival due at once, so the probes between
// segments only shift the schedule. At most `clients` requests are in
// flight; a request is timed from when it was due, so a stall also charges
// the wait it imposes on the requests queued behind it. Senders sleep with
// nanosleep(2): the runtime's timers wake up to a millisecond late, which
// would add a millisecond to every request. The load keeps about one CPU
// busy at a time, and so does its probe.
func (b *bench) openLoop(first, period int, rate float64, rng *rand.Rand, op opFunc) timed {
	due := arrivalTimes(rng, b.timedOps(rate, period), rate)
	return b.segmented(len(due), rate, 1, func(s0, s1 int) []opRecord {
		recs := make([]opRecord, s1-s0)
		start := time.Now().Add(-due[s0])
		var mu sync.Mutex
		next := s0
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					j := next
					next++
					mu.Unlock()
					if j >= s1 {
						return
					}
					at := start.Add(due[j])
					sleepUntil(at)
					var after func()
					recs[j-s0], after = b.runOp(op, first+j, at)
					if after != nil {
						after()
					}
				}
			}()
		}
		wg.Wait()
		return recs
	})
}

// segmented runs the n timed ops in segments of about probeEvery of load at
// the nominal rate (run runs ops s0..s1-1, counted from the first timed
// op), and times the host probe on probeWorkers goroutines before the first
// segment and after each. The probes' time, allocations and CPU time are
// left out of the phase's.
func (b *bench) segmented(n int, rate float64, probeWorkers int, run func(s0, s1 int) []opRecord) timed {
	seg := max(1, int(math.Round(rate*probeEvery.Seconds())))
	var tm timed
	var probeAllocs uint64
	var probeCPU, probeWall time.Duration
	probe := func() {
		a, c, t := heapAllocs(), cpuTime(), time.Now()
		tm.probes = append(tm.probes, probeHost(probeWorkers))
		probeAllocs += heapAllocs() - a
		probeCPU += cpuTime() - c
		probeWall += time.Since(t)
	}
	a0, c0, start := heapAllocs(), cpuTime(), time.Now()
	probe()
	for s0 := 0; s0 < n; s0 += seg {
		tm.recs = append(tm.recs, run(s0, min(n, s0+seg))...)
		probe()
	}
	tm.elapsed = time.Since(start) - probeWall
	tm.allocs = heapAllocs() - a0 - probeAllocs
	tm.cpu = cpuTime() - c0 - probeCPU
	return tm
}

// runOp runs op i, timed from due (the instant it should have started),
// and records a failure. A traced op's wait between due and sent is its
// gen.wait span.
func (b *bench) runOp(op opFunc, i int, due time.Time) (opRecord, func()) {
	var sp *opSpans
	if b.traced(i) {
		sp = b.tr.beginOp(int64(i)+1, due)
	}
	sent := time.Now()
	if sent.After(due) {
		sp.record("gen.wait", due, sent)
	}
	after, err := op(i, sp)
	done := time.Now()
	sp.end(done)
	if err != nil {
		b.mismatch("op %d failed: %v", i, err)
	}
	return opRecord{op: i, lat: done.Sub(due), late: sent.Sub(due), ok: err == nil, traced: sp != nil}, after
}

// warmup runs the untimed prefix ops 0..n-1 as the set-up phase "warm",
// counting them for the stamp; a failed warm-up op is a mismatch.
func (b *bench) warmup(n int, op func(i int) error) {
	_ = b.setupPhase("warm", n, func(i int) error {
		err := op(i)
		b.mu.Lock()
		b.warmAttempted++
		if err != nil {
			b.warmFailed++
		}
		b.mu.Unlock()
		if err != nil {
			b.mismatch("warm-up op %d: %v", i, err)
		}
		return nil
	}) // the phase function never fails, so neither can the phase
}

// warmOps is the warm-up length: n, or in a smoke run twice the op count
// when that is less.
func (b *bench) warmOps(n int) int {
	if b.cfg.ops > 0 {
		return min(n, 2*b.cfg.ops)
	}
	return n
}

// stratified returns the kind of op i from a mix of counts per block of
// sum(mix) ops. Each block is a seeded permutation of exactly that mix, so
// the mix of every run is the same and only the order follows the seed.
func stratified(seed int64, i int, mix []int) int {
	n := 0
	for _, c := range mix {
		n += c
	}
	perm := rand.New(rand.NewSource(int64(mix64(uint64(seed)^0x5354524154, uint64(i/n)) >> 1))).Perm(n)
	slot := perm[i%n]
	for kind, c := range mix {
		if slot < c {
			return kind
		}
		slot -= c
	}
	panic("unreachable")
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
	}
}

// arrivalTimes draws n sorted uniform times over n/rate seconds.
func arrivalTimes(rng *rand.Rand, n int, rate float64) []time.Duration {
	window := float64(n) / rate
	due := make([]time.Duration, n)
	for j := range due {
		due[j] = time.Duration(rng.Float64() * window * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// timedOps is the length of the timed phase: as many whole periods of the
// op sequence as a nominal rate of ops per second fills in cfg.seconds, at
// least minRepeats; or, in a smoke run, cfg.ops. The rate is a constant of
// the workload, not a measurement, so the op count, and so how often each
// op repeats, is the same whether the program runs fast or slow.
func (b *bench) timedOps(rate float64, period int) int {
	if b.cfg.ops > 0 {
		return b.cfg.ops
	}
	return period * max(minRepeats, int(math.Round(b.cfg.seconds*rate/float64(period))))
}

// cpuTime is the process's user plus system CPU time. Unlike wall time it
// does not grow when the host lends the CPUs to someone else.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the sorted latencies of the successful ops that match.
func latencies(recs []opRecord, keep func(opRecord) bool) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if r.ok && keep(r) {
			out = append(out, r.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
