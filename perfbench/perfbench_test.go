package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"puppies"
	"puppies/internal/transform"
)

// kindNames label photo kinds in test failures.
var kindNames = [numKinds]string{"pascal", "caltech", "inria"}

// testPhotos derives one photo of each kind from freshly rendered scenes.
func testPhotos(t *testing.T, seed int64) []*photo {
	t.Helper()
	b := newBench(config{seed: seed})
	scenes, err := genScenes(b, []int{kindPascal, kindCaltech, kindInria})
	if err != nil {
		t.Fatal(err)
	}
	var out []*photo
	for kind, sc := range scenes {
		out = append(out, derivePhoto(sc, kind, seed))
	}
	return out
}

// Each traced decomposition of Protect and ProtectJPEG yields the bytes of
// the composite public call, for every protection the workloads use.
func TestProtectLayeredMatchesComposite(t *testing.T) {
	for _, p := range testPhotos(t, 3) {
		camera, err := p.cameraJPEG()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			pr := protectionFor(i)
			want, err := protectComposite(p, pr, camera)
			if err != nil {
				t.Fatalf("%s %+v: composite: %v", kindNames[p.kind], pr, err)
			}
			got, err := protectLayered(nil, p, pr, camera, false)
			if err != nil {
				t.Fatalf("%s %+v: layered: %v", kindNames[p.kind], pr, err)
			}
			if !bytes.Equal(got.jpeg, want.jpeg) || !bytes.Equal(got.params, want.params) {
				t.Errorf("%s %+v: layered protect differs from the composite (jpeg %d vs %d bytes, params %d vs %d bytes)",
					kindNames[p.kind], pr, len(got.jpeg), len(want.jpeg), len(got.params), len(want.params))
			}
		}
	}
}

// Each traced decomposition of the recover ops displays the pixels of the
// composite puppies.Unprotect* call and recovers the reference exactly.
func TestRecoverLayeredMatchesComposite(t *testing.T) {
	p := testPhotos(t, 5)[kindPascal]
	camera, err := p.cameraJPEG()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		prot, err := protectLayered(nil, p, protectionFor(i), camera, true)
		if err != nil {
			t.Fatal(err)
		}
		it := &item{w: p.rgba.Bounds().Dx(), h: p.rgba.Bounds().Dy(), gx: prot.gx, gy: prot.gy}
		reqs := []recoverReq{
			{kind: copyOriginal},
			{kind: copyCoeff, spec: it.crop(1)},
			{kind: copyPixels, spec: transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}},
			{kind: copyPixels, spec: transform.Spec{Op: transform.OpFilter, Kernel: "gaussian3"}},
		}
		if it.aligned() {
			reqs = append(reqs, recoverReq{kind: copyCoeff, spec: transform.Spec{Op: transform.OpRotate90}},
				recoverReq{kind: copyCoeff, spec: transform.Spec{Op: transform.OpFlipH}})
		}
		for _, r := range reqs {
			// The PSP's copy, made the way a shard makes it.
			data := prot.jpeg
			switch r.kind {
			case copyCoeff:
				data, err = puppies.PSPTransform(prot.jpeg, r.spec)
			case copyPixels:
				data, err = puppies.PSPTransformPixels(prot.jpeg, r.spec)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := recoverComposite(r, data, prot.params, p.keys)
			if err != nil {
				t.Fatalf("protection %d, %+v: composite: %v", i, r, err)
			}
			got, err := recoverLayered(nil, r, data, prot.params, p.keys)
			if err != nil {
				t.Fatalf("protection %d, %+v: layered: %v", i, r, err)
			}
			if !bytes.Equal(got.display.(*image.RGBA).Pix, want.(*image.RGBA).Pix) {
				t.Errorf("protection %d, %+v: layered recovery displays other pixels than the composite", i, r)
			}
			if err := checkRecovered(r, got, prot.ref); err != nil {
				t.Errorf("protection %d, %+v: %v", i, r, err)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke runs check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// A few-op run of every workload, untraced and traced, is correct and prints
// exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeRunsPrintBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the cluster and builds each catalog")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{"share": 4, "browse": 40, "recover": 12}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				res, err := run(config{workload: w.Name, seed: 2, seconds: 1, trace: trace == 1, ops: ops[w.Name],
					spans: filepath.Join(t.TempDir(), "spans.jsonl")})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != ops[w.Name] {
					t.Errorf("correct=%v failed=%d attempted=%d, want true, 0, %d", res.Correct, res.Failed, res.Attempted, ops[w.Name])
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %v (unit %q), want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// One seed reproduces the same op sequence; another seed gives another.
func TestSeedReproducesOpSequence(t *testing.T) {
	items := func() []*item {
		var out []*item
		for r := 0; r < 60; r++ {
			out = append(out, &item{id: fmt.Sprint("photo", r), w: 896, h: 592, gx: 16, gy: 16})
		}
		return out
	}
	browse := func(seed int64) []browseReq {
		l := &browseLoad{items: items()}
		l.request(&bench{cfg: config{seed: seed}}, 499)
		return l.reqs
	}
	recov := func(seed int64) []recoverReq {
		l := &recoverLoad{items: items()}
		l.request(&bench{cfg: config{seed: seed}}, 499)
		return l.reqs
	}
	arrivals := func(seed int64) any {
		return arrivalTimes(rand.New(rand.NewSource(seed*31+7)), 500, 100)
	}
	if !reflect.DeepEqual(browse(4), browse(4)) || reflect.DeepEqual(browse(4), browse(5)) {
		t.Error("browse requests do not follow the seed")
	}
	if !reflect.DeepEqual(recov(4), recov(4)) || reflect.DeepEqual(recov(4), recov(5)) {
		t.Error("recover requests do not follow the seed")
	}
	if !reflect.DeepEqual(arrivals(4), arrivals(4)) || reflect.DeepEqual(arrivals(4), arrivals(5)) {
		t.Error("browse arrival times do not follow the seed")
	}
	a, b, c := testPhotos(t, 4)[kindPascal], testPhotos(t, 4)[kindPascal], testPhotos(t, 6)[kindPascal]
	if !bytes.Equal(a.rgba.Pix, b.rgba.Pix) || !reflect.DeepEqual(a.keys, b.keys) || !reflect.DeepEqual(a.regions, b.regions) {
		t.Error("one seed derives different photos")
	}
	if bytes.Equal(a.rgba.Pix, c.rgba.Pix) {
		t.Error("two seeds derive the same photo")
	}
}

// quartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartilesMatchPython(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartiles(data), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// The attribution splits parallel children evenly and clips work that
// outlives the op, so layer self times add up to the op latency.
func TestAttributionAddsUpToOpLatency(t *testing.T) {
	spans := []spanRec{
		{Name: "op", Op: 1, Depth: depthOp, Start: 0, End: 100},
		{Name: "psp.client", Op: 1, Depth: depthClient, Start: 10, End: 90},
		{Name: "cluster.gateway", Op: 1, Depth: depthGateway, Start: 20, End: 80},
		{Name: "psp.shard", Op: 1, Depth: depthShard, Start: 30, End: 60},
		{Name: "psp.shard", Op: 1, Depth: depthShard, Start: 40, End: 120}, // a straggler replica
		{Name: "psp.shard", Op: 2, Depth: depthShard, Start: 0, End: 50},   // an op never traced
	}
	bd := attribute(spans)
	if err := bd.check(); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"trace.unattributed":   20,
		"psp.client_gap":       20,
		"cluster.gateway_self": 10,
		"psp.shard":            50,
	}
	if !reflect.DeepEqual(bd.selfNs, want) {
		t.Errorf("self times %v, want %v", bd.selfNs, want)
	}
}

// The segmented timed phase runs every op once, in order of segments, and
// probes the host before the first segment and after each.
func TestSegmentedRunsEveryOpOnce(t *testing.T) {
	b := &bench{}
	var ran []int
	tm := b.segmented(25, 10, 1, func(s0, s1 int) []opRecord {
		var recs []opRecord
		for i := s0; i < s1; i++ {
			ran = append(ran, i)
			recs = append(recs, opRecord{op: i, ok: true})
		}
		return recs
	})
	if len(ran) != 25 || len(tm.recs) != 25 {
		t.Fatalf("ran %d ops, recorded %d, want 25", len(ran), len(tm.recs))
	}
	for i, op := range ran {
		if op != i {
			t.Fatalf("op %d ran as %d", i, op)
		}
	}
	if len(tm.probes) != 4 { // segments of 10 ops: 10, 10, 5
		t.Errorf("%d probes, want 4", len(tm.probes))
	}
}

// hostScale maps the median probe time to probeRef.
func TestHostScale(t *testing.T) {
	probes := []time.Duration{3 * probeRef, probeRef / 2, 2 * probeRef}
	if got := hostScale(probes); got != 0.5 {
		t.Errorf("hostScale = %v, want 0.5 (median probe twice probeRef)", got)
	}
}

// An op's best repeat stands for every op of its class.
func TestBestLatenciesTakeEachClassFastestRepeat(t *testing.T) {
	tm := timed{recs: []opRecord{
		{op: 0, lat: 5, ok: true}, {op: 1, lat: 9, ok: true},
		{op: 2, lat: 3, ok: true}, {op: 3, lat: 7, ok: true},
		{op: 4, lat: 1, ok: false},
	}}
	got := bestLatencies(tm, func(i int) string { return fmt.Sprint(i % 2) })
	want := []time.Duration{3, 7, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("best latencies %v, want %v", got, want)
	}
}
