package psp

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"puppies/internal/jpegc"
	"puppies/internal/transform"
)

// benchJPEG is a larger fixture than the correctness tests use, so the
// cold path's decode→transform→encode cost is representative.
func benchJPEG(b *testing.B) []byte {
	b.Helper()
	img, err := jpegc.FromPlanar(testPlanar(512, 384), jpegc.Options{Quality: 80})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchThumbSpec is the canonical 1/8-scale thumbnail — the same spec the
// load generator's thumbnail route requests. The Cold/Thumbnail benchmark
// pair below serves this one spec so the thumb-gate ratio is like-for-like.
var benchThumbSpec = transform.Spec{Op: transform.OpScale, FactorX: 0.125, FactorY: 0.125}

// benchServer stores the bench fixture with params (nil for an unprotected
// image) behind a server with the given cache budgets.
func benchServer(b *testing.B, variantBytes, coeffBytes int64, params []byte) (*Server, http.Handler, string) {
	b.Helper()
	srv := NewServer()
	srv.VariantCacheBytes = variantBytes
	srv.CoeffCacheBytes = coeffBytes
	if _, err := srv.st().Put("bench", benchJPEG(b), params, ""); err != nil {
		b.Fatal(err)
	}
	raw, _ := benchThumbSpec.MarshalJSON()
	path := "/v1/images/bench/transformed?spec=" + string(raw)
	return srv, srv.Handler(), path
}

func serveOnce(b *testing.B, h http.Handler, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// BenchmarkServeTransformedCold is the uncached full-resolution serving
// path at the thumbnail spec: full JPEG decode, pixel-domain resample,
// optimized re-encode per request — what every thumbnail request cost
// before the scaled-decode path. The fixture is stored with public
// parameters, so the production rule for protected images serves it down
// the full path (the thumb-gate baseline the scaled-decode rows are
// compared against).
func BenchmarkServeTransformedCold(b *testing.B) {
	_, h, path := benchServer(b, -1, -1, benchParams)
	serveOnce(b, h, path) // warm pools, fault in code paths
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, path)
	}
}

// BenchmarkServeThumbnailCold is the scaled-decode fast path under the
// thumbnail fan-out workload at the same 1/8-scale spec: the coefficient
// cache is warm (a grid client requests many variants of the same image,
// so entropy decode amortizes) but every served variant is computed from
// coefficients — reduced IDCT, residual resample, FDCT over the small
// plane, encode. The thumb-gate requires this ≥5x faster than
// BenchmarkServeTransformedCold.
func BenchmarkServeThumbnailCold(b *testing.B) {
	benchThumbnailCold(b, nil)
}

// BenchmarkServeThumbnailColdFullPath is the same workload on a protected
// fixture, which the planner never serves — the honest like-for-like cost
// of the fast path's marginal win (reported for transparency, not gated).
func BenchmarkServeThumbnailColdFullPath(b *testing.B) {
	benchThumbnailCold(b, benchParams)
}

// benchParams is a public-parameter document: any stored params mark an
// image protected, and protected images always take the full path.
var benchParams = []byte(`{"v":1}`)

func benchThumbnailCold(b *testing.B, params []byte) {
	_, h, path := benchServer(b, -1, 0, params)
	serveOnce(b, h, path) // warm the coefficient cache and pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, path)
	}
}

// BenchmarkServeTransformedHot is the steady-state hot path: the encoded
// variant is cached, so a request is a cache probe plus a buffer write.
func BenchmarkServeTransformedHot(b *testing.B) {
	srv, h, path := benchServer(b, 0, 0, nil)
	serveOnce(b, h, path) // prime the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, path)
	}
	b.StopTimer()
	if n := srv.CacheStats().TransformsComputed; n != 1 {
		b.Fatalf("hot benchmark recomputed: %d transforms", n)
	}
}

// BenchmarkServeTransformedNotModified is the conditional-GET path: the
// client revalidates with If-None-Match and gets a bodyless 304.
func BenchmarkServeTransformedNotModified(b *testing.B) {
	_, h, path := benchServer(b, 0, 0, nil)
	etag := serveOnce(b, h, path).Header().Get("ETag")
	if etag == "" {
		b.Fatal("no ETag")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("If-None-Match", etag)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified {
			b.Fatalf("status %d, want 304", rec.Code)
		}
	}
}

// BenchmarkServeTransformedConcurrent drives the hot path from all
// GOMAXPROCS procs at once, measuring shard-lock contention on the
// variant cache.
func BenchmarkServeTransformedConcurrent(b *testing.B) {
	_, h, path := benchServer(b, 0, 0, nil)
	serveOnce(b, h, path)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			serveOnce(b, h, path)
		}
	})
}

// BenchmarkServeTransformedCollapse measures a burst of concurrent
// requests for a never-before-seen (image, spec) pair: the singleflight
// layer must run the decode+transform once per burst with every other
// request sharing the result. The computations/burst metric asserts that.
func BenchmarkServeTransformedCollapse(b *testing.B) {
	const burst = 8
	srv, h, _ := benchServer(b, 0, 0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh factor per iteration makes a unique cache key, so every
		// burst starts cold.
		spec := transform.Spec{Op: transform.OpScale, FactorX: 0.25, FactorY: 0.25 + float64(i+1)*1e-9}
		raw, _ := spec.MarshalJSON()
		path := "/v1/images/bench/transformed?spec=" + string(raw)
		var wg sync.WaitGroup
		for g := 0; g < burst; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveOnce(b, h, path)
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	stats := srv.CacheStats()
	perBurst := float64(stats.TransformsComputed) / float64(b.N)
	b.ReportMetric(perBurst, "computations/burst")
	if stats.TransformsComputed > uint64(b.N) {
		b.Fatalf("%d computations for %d bursts: collapse failed", stats.TransformsComputed, b.N)
	}
}

// BenchmarkServePixelsHot covers the cached lossless-pixels path.
func BenchmarkServePixelsHot(b *testing.B) {
	srv := NewServer()
	if _, err := srv.st().Put("bench", benchJPEG(b), nil, ""); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	raw, _ := benchThumbSpec.MarshalJSON()
	path := "/v1/images/bench/pixels?spec=" + string(raw)
	serveOnce(b, h, path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, path)
	}
}

// BenchmarkSpecKey guards the canonical-key cost itself: it sits on the
// hot path of every serving request.
func BenchmarkSpecKey(b *testing.B) {
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.33333, FactorY: 0.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if k := spec.Key(); k == "" {
			b.Fatal("empty key")
		}
	}
}
