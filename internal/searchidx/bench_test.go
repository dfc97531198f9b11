package searchidx

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Catalog-search benchmarks. The headline rows, and their bounds in
// cmd/benchfmt's gate table (checked by `make perf`):
//
//	BenchmarkSearchLookup10k/100k/1M   indexed k-NN, ns/op + p50-ns/p99-ns
//	BenchmarkSearchScan100k            exact brute-force baseline
//
//	BenchmarkSearchScan100k/BenchmarkSearchLookup100k >= 50   (ns/op)
//	BenchmarkSearchLookup100k                         >= 0.9  (recall-k10)
//	BenchmarkSearchLookup100k                         <= 1ms  (p99-ns)
//
// The corpus is synthetic and clustered: groups of sigma-4 noisy copies
// around random base signatures, queried with fresh noisy copies of a base.
// That is the near-duplicate regime the index serves (recompressed and
// transformed copies of a stored image, per the invariance tests): the k
// nearest neighbors are the cluster members, far below the inter-image
// distance floor, and recall@10 measures whether the probe set finds them.

// benchIndexes caches built indexes across -count runs and sub-benchmarks;
// a 10^6 build is far too expensive to repeat per run.
var benchIndexes = map[int]*benchCorpus{}

type benchCorpus struct {
	ix      *Index
	queries []Signature
}

const (
	benchQueries     = 512
	benchClusterSize = 16
	benchSigma       = 4
)

func corpusFor(b *testing.B, n int) *benchCorpus {
	b.Helper()
	if c, ok := benchIndexes[n]; ok {
		return c
	}
	rng := rand.New(rand.NewSource(int64(7 + n)))
	bases := make([]Signature, n/benchClusterSize)
	for i := range bases {
		bases[i] = randomSig(rng)
	}
	ids := make([]string, n)
	sigs := make([]Signature, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("b-%07d", i)
		sigs[i] = noisySig(rng, bases[i/benchClusterSize], benchSigma)
	}
	ix := New()
	ix.AddBatch(ids, sigs)
	c := &benchCorpus{ix: ix, queries: make([]Signature, benchQueries)}
	for i := range c.queries {
		c.queries[i] = noisySig(rng, bases[rng.Intn(len(bases))], benchSigma)
	}
	benchIndexes[n] = c
	return c
}

// benchmarkLookup measures per-query latency and reports the p50/p99
// quantiles alongside the standard ns/op.
func benchmarkLookup(b *testing.B, n int) {
	c := corpusFor(b, n)
	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_ = c.ix.LookupPlain(c.queries[i%len(c.queries)], 10)
		durs = append(durs, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(durs)-1))
		return float64(durs[i])
	}
	b.ReportMetric(q(0.50), "p50-ns")
	b.ReportMetric(q(0.99), "p99-ns")
	if n == 100_000 {
		b.ReportMetric(measureRecall(c, 10, 200), "recall-k10")
	}
}

// measureRecall computes recall@k of the indexed lookup against the exact
// scanner over m held-out queries, counting ties at the k-th distance as
// acceptable answers (both orders are correct k-NN sets).
func measureRecall(c *benchCorpus, k, m int) float64 {
	hits, total := 0, 0
	for i := 0; i < m; i++ {
		q := c.queries[i%len(c.queries)]
		want := c.ix.Scan(q, k)
		got := c.ix.LookupPlain(q, k)
		if len(want) == 0 {
			continue
		}
		kth := want[len(want)-1].Distance
		ok := make(map[string]bool, len(want))
		for _, r := range want {
			ok[r.ID] = true
		}
		for _, r := range got {
			total++
			if ok[r.ID] || r.Distance <= kth {
				hits++
			}
		}
		total += len(want) - len(got)
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func BenchmarkSearchLookup10k(b *testing.B)  { benchmarkLookup(b, 10_000) }
func BenchmarkSearchLookup100k(b *testing.B) { benchmarkLookup(b, 100_000) }
func BenchmarkSearchLookup1M(b *testing.B)   { benchmarkLookup(b, 1_000_000) }

// BenchmarkSearchScan100k is the brute-force baseline the indexed lookup is
// gated 50x against.
func BenchmarkSearchScan100k(b *testing.B) {
	c := corpusFor(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ix.Scan(c.queries[i%len(c.queries)], 10)
	}
}

// BenchmarkSearchBuild100k measures bulk index construction (AddBatch
// through internal/parallel) and reports build throughput.
func BenchmarkSearchBuild100k(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(11))
	ids := make([]string, n)
	sigs := make([]Signature, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("b-%07d", i)
		sigs[i] = randomSig(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New()
		ix.AddBatch(ids, sigs)
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sigs/s")
}

// BenchmarkSADKernel vs BenchmarkSADNaive: the optimized 64-byte SAD
// against the obvious loop it replaced.
func benchmarkSAD(b *testing.B, f func(a []byte, off int, q *Signature) uint32) {
	rng := rand.New(rand.NewSource(13))
	const lanes = 1024
	slab := make([]byte, lanes*SigBytes)
	rng.Read(slab)
	q := randomSig(rng)
	b.SetBytes(SigBytes)
	b.ResetTimer()
	var s uint32
	for i := 0; i < b.N; i++ {
		s += f(slab, (i%lanes)*SigBytes, &q)
	}
	sink = s
}

var sink uint32

func BenchmarkSADKernel(b *testing.B) { benchmarkSAD(b, sad64) }
func BenchmarkSADNaive(b *testing.B)  { benchmarkSAD(b, sadNaive) }
