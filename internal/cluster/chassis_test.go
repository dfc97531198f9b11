package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"puppies/internal/psp"
)

// TestGatewayShedsOverload drives the gateway's admission path directly: a
// capacity-1 gateway whose only shard stalls GETs, so one parked request
// holds the whole capacity while the rest are shed.
func TestGatewayShedsOverload(t *testing.T) {
	gate := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	parked := make(chan struct{}, 1)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parked <- struct{}{}
		<-gate
		_, _ = w.Write([]byte("jpeg bytes"))
	}))
	defer stub.Close()
	defer release() // before stub.Close, which waits for the parked handler

	gw, err := New(Config{
		Shards: []string{stub.URL}, Replicas: 1, WriteQuorum: 1,
		ShardTimeout: 5 * time.Second,
		MaxInflight:  1, AdmitWait: 20 * time.Millisecond, AdmitQueue: 8,
		AdmitRetryAfter: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	holder := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/images/held")
		if err != nil {
			holder <- 0
			return
		}
		resp.Body.Close()
		holder <- resp.StatusCode
	}()
	<-parked // the holder is admitted and stalls inside the shard

	// A concurrent GET is shed with the PSP's exact shed shape.
	resp, err := http.Get(srv.URL + "/v1/images/held")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("concurrent GET: HTTP %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.ParseFloat(ra, 64); err != nil || secs <= 0 || !strings.Contains(ra, ".") {
		t.Fatalf("Retry-After %q, want fractional seconds", ra)
	}
	if cls := resp.Header.Get(psp.ErrorClassHeader); cls != psp.ErrorClassOverloaded {
		t.Fatalf("error class %q, want %q", cls, psp.ErrorClassOverloaded)
	}

	// psp.Client types the gateway's shed as ErrOverloaded.
	client := &psp.Client{BaseURL: srv.URL, MaxRetries: -1}
	if _, err := client.FetchImage(context.Background(), "held"); !errors.Is(err, psp.ErrOverloaded) {
		t.Fatalf("client error = %v, want ErrOverloaded", err)
	}

	// A batch envelope is free; each item sheds into its own result slot.
	jpeg := testJPEG(t)
	results, err := client.UploadBatch(context.Background(), []psp.BatchUpload{{Image: jpeg}, {Image: jpeg}})
	if err != nil {
		t.Fatalf("envelope must not fail on per-item sheds: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, res := range results {
		if res.Status != http.StatusTooManyRequests || res.ID != "" {
			t.Fatalf("item %d: %+v, want a per-item 429", i, res)
		}
	}

	release()
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("holder: HTTP %d, want 200", code)
	}
	// The holder's histogram sample lands just after its response.
	waitFor(t, 3*time.Second, "holder latency sample", func() bool {
		return gw.Stats().LatencyNs["get"].Count > 0
	})
	st := gw.Stats()
	if n := st.LatencyNs["get"].Count; n != 1 {
		t.Fatalf(`LatencyNs["get"] counted %d requests, want only the 1 admitted`, n)
	}
	if n := st.Admission.Sheds(); n != 4 {
		t.Fatalf("admission shed %d requests, want 4 (two GETs, two batch items): %+v", n, st.Admission)
	}
}

// batchPart is one hand-rolled multipart part.
type batchPart struct {
	ctype, name, key string
	body             []byte
}

// multipartBody encodes parts; a nil parts list is the zero-part envelope.
func multipartBody(t *testing.T, parts []batchPart) (body []byte, contentType string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		hdr := textproto.MIMEHeader{}
		hdr.Set("Content-Disposition", fmt.Sprintf("form-data; name=%q", p.name))
		hdr.Set("Content-Type", p.ctype)
		if p.key != "" {
			hdr.Set("Idempotency-Key", p.key)
		}
		pw, err := mw.CreatePart(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pw.Write(p.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// postRawBatch POSTs body and returns the envelope status and, for a 200
// carrying a body, the decoded results.
func postRawBatch(t *testing.T, url string, body []byte, contentType string) (int, []psp.BatchResult) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/images:batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br psp.BatchResponse
	if resp.StatusCode == http.StatusOK && resp.ContentLength != 0 {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return resp.StatusCode, br.Results
}

// slowPuts delays PUTs to one shard before they are sent, so that replica
// acks after the gateway has answered at write quorum and its request body
// is read only then.
type slowPuts struct {
	host  string
	delay time.Duration
	on    atomic.Bool
}

func (s *slowPuts) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPut && r.URL.Host == s.host && s.on.Load() {
		time.Sleep(s.delay)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestBatchParityWithPSP posts the same multipart bodies to a single PSP
// and to a gateway over real PSP shards: both daemons share one batch
// reader, so they must agree on every envelope status and every per-item
// status. One replica is slowed past the quorum ack, and each stored item
// must still land byte-identical on all three replicas — the gateway's
// straggler PUTs must never read a part buffer the reader has recycled.
func TestBatchParityWithPSP(t *testing.T) {
	const limit = 16 << 10
	single := psp.NewServer()
	single.MaxUpload = limit
	singleSrv := httptest.NewServer(single.Handler())
	defer singleSrv.Close()

	var urls []string
	for i := 0; i < 3; i++ {
		s := httptest.NewServer(psp.NewServer().Handler())
		defer s.Close()
		urls = append(urls, s.URL)
	}
	slow := &slowPuts{host: hostOf(urls[0]), delay: 100 * time.Millisecond}
	slow.on.Store(true)
	gw, err := New(Config{
		Shards: urls, Replicas: 3, WriteQuorum: 2, MaxBody: limit,
		Transport: slow, ShardTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	jpeg := testJPEG(t)
	params := []byte(`{"v":1}`)
	image := func(key string) batchPart { return batchPart{"image/jpeg", "image", key, jpeg} }
	jsonPart := func(key string) batchPart {
		return batchPart{"application/json", "image", key, uploadBody(t, jpeg)}
	}
	paramsPart := batchPart{"application/json", psp.BatchParamsPart, "", params}
	oversized := batchPart{"image/jpeg", "image", "", bytes.Repeat([]byte{0xff}, limit+1)}
	var tooMany []batchPart
	for i := 0; i <= 1024; i++ {
		tooMany = append(tooMany, batchPart{"application/json", "image", "", []byte(`{}`)})
	}

	cases := []struct {
		name     string
		parts    []batchPart
		rawEmpty bool // a literally empty request body
		slow     bool
		want     int // the PSP's envelope status; 0 checks parity only
	}{
		{name: "raw-with-params", parts: []batchPart{image("p-raw"), paramsPart}, slow: true, want: http.StatusOK},
		{name: "json-part", parts: []batchPart{jsonPart("p-json"), image("p-raw-2")}, slow: true, want: http.StatusOK},
		{name: "oversized-part", parts: []batchPart{oversized, image("p-after-big"), paramsPart}, slow: true, want: http.StatusOK},
		{name: "orphan-params", parts: []batchPart{paramsPart, image("")}, want: http.StatusBadRequest},
		{name: "image-named-params", parts: []batchPart{{"image/jpeg", psp.BatchParamsPart, "p-named", jpeg}}, slow: true, want: http.StatusOK},
		{name: "too-many-parts", parts: tooMany, want: http.StatusBadRequest},
		{name: "zero-parts", want: http.StatusBadRequest},
		{name: "empty-body", rawEmpty: true},
	}
	var stored []string
	for _, tc := range cases {
		slow.on.Store(tc.slow)
		body, ct := multipartBody(t, tc.parts)
		if tc.rawEmpty {
			body = nil
		}
		wantStatus, wantRes := postRawBatch(t, singleSrv.URL, body, ct)
		gotStatus, gotRes := postRawBatch(t, gwSrv.URL, body, ct)
		if tc.want != 0 && wantStatus != tc.want {
			t.Fatalf("%s: PSP answered HTTP %d, want %d", tc.name, wantStatus, tc.want)
		}
		if gotStatus != wantStatus || len(gotRes) != len(wantRes) {
			t.Fatalf("%s: gateway HTTP %d with %d results, PSP HTTP %d with %d", tc.name, gotStatus, len(gotRes), wantStatus, len(wantRes))
		}
		for i := range wantRes {
			w, g := wantRes[i], gotRes[i]
			if g.Status != w.Status || (g.ID == "") != (w.ID == "") {
				t.Fatalf("%s item %d: gateway %+v, PSP %+v", tc.name, i, g, w)
			}
			if g.ID != "" {
				stored = append(stored, g.ID)
			}
		}
	}
	if len(stored) != 5 {
		t.Fatalf("gateway stored %d items, want 5", len(stored))
	}

	// Every stored item reaches all three replicas, the slowed one
	// included, with identical image and params bytes.
	for _, id := range stored {
		var img, prm [][]byte
		waitFor(t, 5*time.Second, "replication of "+id, func() bool {
			img, prm = img[:0], prm[:0]
			for _, u := range urls {
				st, _, b := getBytes(t, u+"/v1/images/"+id, nil)
				if st != http.StatusOK {
					return false
				}
				_, _, p := getBytes(t, u+"/v1/images/"+id+"/params", nil)
				img, prm = append(img, b), append(prm, p)
			}
			return true
		})
		for k := range urls {
			if !bytes.Equal(img[k], jpeg) || !bytes.Equal(prm[k], prm[0]) {
				t.Fatalf("%s: replica %d stored different bytes", id, k)
			}
		}
	}
}
