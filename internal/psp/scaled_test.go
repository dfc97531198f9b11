package psp

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"puppies/internal/jpegc"
	"puppies/internal/parallel"
	"puppies/internal/transform"
)

func scaledFixtureJPEG(t *testing.T) []byte {
	t.Helper()
	img, err := jpegc.FromPlanar(testPlanar(200, 120), jpegc.Options{Quality: 85})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func serveTransformed(t *testing.T, srv *Server, id string, spec transform.Spec) ([]byte, string) {
	t.Helper()
	raw, _ := spec.MarshalJSON()
	req := httptest.NewRequest("GET", "/v1/images/"+id+"/transformed?spec="+string(raw), nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), rec.Header().Get("ETag")
}

// expectedBytes encodes a coefficient image the way /transformed does.
func expectedBytes(t *testing.T, out *jpegc.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := out.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTransformedUsesPlanner pins the serve-path routing: an unprotected
// image's thumbnail comes from the scaled-decode planner, not the full path
// (whose bytes TestTransformedProtectedKeepsFullPath pins).
func TestTransformedUsesPlanner(t *testing.T) {
	stored := scaledFixtureJPEG(t)
	img, err := jpegc.Decode(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.25, FactorY: 0.25}
	planned, err := transform.ApplyPlanned(img, spec)
	if err != nil {
		t.Fatal(err)
	}
	full, err := transform.Apply(img, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantPlanned, wantFull := expectedBytes(t, planned), expectedBytes(t, full)
	if bytes.Equal(wantPlanned, wantFull) {
		t.Fatal("fixture too smooth: planned and full paths encode identically, test proves nothing")
	}

	srv := NewServer()
	if _, err := srv.st().Put("img", stored, nil, ""); err != nil {
		t.Fatal(err)
	}
	got, _ := serveTransformed(t, srv, "img", spec)
	if !bytes.Equal(got, wantPlanned) {
		t.Fatal("unprotected /transformed did not serve the planner path's bytes")
	}
}

// TestTransformedProtectedKeepsFullPath pins the recovery-safety rule: an
// image stored with public parameters is served from the full path, byte
// for byte, no matter what the planner would prefer.
func TestTransformedProtectedKeepsFullPath(t *testing.T) {
	stored := scaledFixtureJPEG(t)
	img, err := jpegc.Decode(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.25, FactorY: 0.25}
	full, err := transform.Apply(img, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if _, err := srv.st().Put("prot", stored, []byte(`{"v":1}`), ""); err != nil {
		t.Fatal(err)
	}
	got, _ := serveTransformed(t, srv, "prot", spec)
	if !bytes.Equal(got, expectedBytes(t, full)) {
		t.Fatal("protected /transformed did not serve the full path's bytes")
	}
}

// TestTransformedScaledDeterministic re-serves the same thumbnail spec from
// fresh servers at several worker counts and requires identical bytes and
// ETags — the cache contract (same spec → same bytes) for the fast path.
func TestTransformedScaledDeterministic(t *testing.T) {
	stored := scaledFixtureJPEG(t)
	spec := transform.Spec{Op: transform.OpScale, FactorX: 0.125, FactorY: 0.125}
	var baseBody []byte
	var baseTag string
	for _, workers := range []int{1, 2, 8} {
		prev := parallel.SetWorkers(workers)
		srv := NewServer()
		if _, err := srv.st().Put("img", stored, nil, ""); err != nil {
			parallel.SetWorkers(prev)
			t.Fatal(err)
		}
		body, etag := serveTransformed(t, srv, "img", spec)
		parallel.SetWorkers(prev)
		if baseBody == nil {
			baseBody, baseTag = append([]byte(nil), body...), etag
			continue
		}
		if etag != baseTag {
			t.Fatalf("workers=%d: ETag %q != %q", workers, etag, baseTag)
		}
		if !bytes.Equal(body, baseBody) {
			t.Fatalf("workers=%d: served bytes differ", workers)
		}
	}
}
