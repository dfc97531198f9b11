package psp

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"puppies/internal/admission"
)

// countBatchItems parses body independently of ServeBatch and counts its
// items: every part except a non-image part named "params". ok is false
// when the body is not a complete, well-formed envelope.
func countBatchItems(body []byte, boundary string) (items int, ok bool) {
	mr := multipart.NewReader(bytes.NewReader(body), boundary)
	for {
		part, err := mr.NextPart()
		if errors.Is(err, io.EOF) {
			return items, true
		}
		if err != nil {
			return 0, false
		}
		if _, err := io.Copy(io.Discard, part); err != nil {
			return 0, false
		}
		raw := strings.HasPrefix(part.Header.Get("Content-Type"), "image/")
		if raw || part.FormName() != BatchParamsPart {
			items++
		}
	}
}

// FuzzBatchMultipart feeds arbitrary bodies through the batch reader both
// daemons parse untrusted multipart with. It must never panic, never hand
// an item more than the part limit, and whenever it answers 200 with a
// result list, that list must hold exactly one entry per item part.
func FuzzBatchMultipart(f *testing.F) {
	const boundary = "fuzzboundary"
	const limit = 64
	part := func(ctype, name, body string) string {
		return "--" + boundary + "\r\nContent-Disposition: form-data; name=\"" + name +
			"\"\r\nContent-Type: " + ctype + "\r\n\r\n" + body + "\r\n"
	}
	end := "--" + boundary + "--\r\n"
	f.Add([]byte(part("image/jpeg", "image", "\xff\xd8") + part("application/json", "params", `{"v":1}`) + end))
	f.Add([]byte(part("application/json", "image", `{"image":"AAE="}`) + end))
	f.Add([]byte(part("application/json", "params", `{}`) + end))
	f.Add([]byte(part("image/jpeg", "params", "x") + part("image/jpeg", "image", strings.Repeat("y", limit+1)) + end))
	f.Add([]byte(end))
	f.Add([]byte(part("image/jpeg", "image", "truncated")))
	f.Add([]byte{})

	ch := NewChassis(nil, admission.Config{Capacity: -1}, 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/images:batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "multipart/form-data; boundary="+boundary)
		rec := httptest.NewRecorder()
		ch.ServeBatch(rec, req, limit, 2, func(p BatchPart) BatchResult {
			if len(p.Body) > limit || len(p.Params) > limit {
				t.Errorf("item handed %d body / %d params bytes, limit %d", len(p.Body), len(p.Params), limit)
			}
			return BatchResult{ID: "stored"}
		})
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			return // a rejected envelope, or a stream that died mid-batch
		}
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatalf("200 with an undecodable body: %v", err)
		}
		items, ok := countBatchItems(body, boundary)
		if !ok {
			t.Fatal("200 for a body the multipart parser rejects")
		}
		if len(br.Results) != items {
			t.Fatalf("%d results for %d item parts", len(br.Results), items)
		}
	})
}
