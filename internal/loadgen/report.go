package loadgen

import (
	"fmt"
	"io"
	"runtime"

	"puppies/internal/cluster"
	"puppies/internal/psp"
	"puppies/internal/stats"
)

// ClusterSource is anything that can produce gateway statz — the live
// *cluster.Gateway in selfhost runs.
type ClusterSource interface {
	Stats() cluster.Statz
}

// RouteReport is one route's aggregated outcome.
type RouteReport struct {
	Ops        uint64                  `json:"ops"`
	Errors     map[string]uint64       `json:"errors,omitempty"`
	Unexpected uint64                  `json:"unexpected"`
	Latency    stats.HistogramSnapshot `json:"latencyNs"`
}

// ClusterReport captures gateway-side evidence after a selfhost chaos run:
// that overload shedding happened, and that breakers tripped AND came
// back. The load gate asserts on these, not just on client-side numbers.
type ClusterReport struct {
	GatewaySheds      uint64 `json:"gatewaySheds"`
	BreakerOpens      uint64 `json:"breakerOpens"`
	BreakerRecoveries uint64 `json:"breakerRecoveries"`
	OpenBreakers      int    `json:"openBreakers"`
	Failovers         uint64 `json:"failovers"`
	Hedges            uint64 `json:"hedges"`
}

// Report is a full load run's result, serializable for archiving next to
// the perf ledger.
type Report struct {
	Seed              int64                  `json:"seed"`
	DurationSec       float64                `json:"durationSec"`
	Mode              string                 `json:"mode"`
	Corpus            int                    `json:"corpus"`
	Routes            map[string]RouteReport `json:"routes"`
	Client            psp.ClientStats        `json:"client"`
	ItemSheds         uint64                 `json:"itemSheds"`
	Unexpected        uint64                 `json:"unexpected"`
	UnexpectedSamples []string               `json:"unexpectedSamples,omitempty"`
	Cluster           *ClusterReport         `json:"cluster,omitempty"`
}

// TotalOps sums ops across routes.
func (r *Report) TotalOps() uint64 {
	var n uint64
	for _, rr := range r.Routes {
		n += rr.Ops
	}
	return n
}

// Sheds reports how many client-visible 429s occurred (terminal or
// retried), including per-item batch sheds — the number -require-sheds
// gates on.
func (r *Report) Sheds() uint64 { return r.Client.Overloaded + r.ItemSheds }

// benchRouteNames maps report routes to the benchmark rows Summary
// prints. Slash-free on purpose: the perf gate table splits NUM/DEN on '/'.
var benchRouteNames = map[string]string{
	RouteHotGet:  "BenchmarkLoadHotGet",
	RouteColdGet: "BenchmarkLoadColdGet",
	RouteUpload:  "BenchmarkLoadUpload",
	RouteBatch:   "BenchmarkLoadBatch",
	RouteRecover: "BenchmarkLoadRecover",
	RouteSearch:  "BenchmarkLoadSearch",
	RouteThumb:   "BenchmarkLoadThumbnail",
}

// Summary renders the run for the CLI: a digest line, then the perf
// ledger's load layer as Go benchmark lines under a `pkg: load` header —
// one row per route with its latency quantiles and ok/err fractions, and
// BenchmarkLoadOverall for the whole run — then per-route error classes,
// cluster evidence and unexpected-failure samples. cmd/benchfmt reads the
// rows straight from this output and skips every other line.
func (r *Report) Summary(w io.Writer) {
	fmt.Fprintf(w, "loadgen: seed=%d mode=%s duration=%.2fs ops=%d unexpected=%d sheds=%d retries=%d\n",
		r.Seed, r.Mode, r.DurationSec, r.TotalOps(), r.Unexpected, r.Sheds(), r.Client.Retries)
	// Like `go test`, suffix the row names with GOMAXPROCS unless it is 1.
	procs := ""
	if n := runtime.GOMAXPROCS(0); n != 1 {
		procs = fmt.Sprintf("-%d", n)
	}
	fmt.Fprintln(w, "pkg: load")
	var meanNs float64
	for _, route := range sortedRoutes(r.Routes) {
		rr := r.Routes[route]
		meanNs += rr.Latency.MeanNs * float64(rr.Ops)
		fmt.Fprintf(w, "%s%s\t%d\t%.0f ns/op\t%d p50-ns\t%d p90-ns\t%d p99-ns\t%g ok-per-op\t%g err-per-op\n",
			benchRouteNames[route], procs, rr.Ops, rr.Latency.MeanNs,
			rr.Latency.P50Ns, rr.Latency.P90Ns, rr.Latency.P99Ns,
			float64(rr.Ops-rr.Unexpected)/float64(rr.Ops), float64(rr.Unexpected)/float64(rr.Ops))
	}
	if total := r.TotalOps(); total > 0 {
		fmt.Fprintf(w, "BenchmarkLoadOverall%s\t%d\t%.0f ns/op\t%g ok-per-op\t%g err-per-op\t%d shed-count\t%d retries\n",
			procs, total, meanNs/float64(total),
			float64(total-r.Unexpected)/float64(total), float64(r.Unexpected)/float64(total),
			r.Sheds(), r.Client.Retries)
	}
	for _, route := range sortedRoutes(r.Routes) {
		if errs := r.Routes[route].Errors; len(errs) > 0 {
			fmt.Fprintf(w, "  %-8s errs=%v\n", route, errs)
		}
	}
	if r.Cluster != nil {
		fmt.Fprintf(w, "  cluster  gatewaySheds=%d breakerOpens=%d breakerRecoveries=%d openBreakers=%d failovers=%d hedges=%d\n",
			r.Cluster.GatewaySheds, r.Cluster.BreakerOpens, r.Cluster.BreakerRecoveries,
			r.Cluster.OpenBreakers, r.Cluster.Failovers, r.Cluster.Hedges)
	}
	for _, s := range r.UnexpectedSamples {
		fmt.Fprintf(w, "  UNEXPECTED: %s\n", s)
	}
}

// FillCluster folds gateway statz into the report.
func (r *Report) FillCluster(st ClusterSource) {
	s := st.Stats()
	cr := &ClusterReport{
		GatewaySheds: s.Admission.Sheds(),
		OpenBreakers: s.OpenBreakers,
		Failovers:    s.Failovers,
		Hedges:       s.Hedges,
	}
	for _, sh := range s.Shards {
		cr.BreakerOpens += sh.BreakerOpens
		cr.BreakerRecoveries += sh.BreakerRecoveries
	}
	r.Cluster = cr
}
