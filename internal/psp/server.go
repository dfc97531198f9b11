// Package psp simulates the Photo Sharing Platform of the paper's system
// architecture (Fig. 5): an HTTP service that stores perturbed images plus
// their public parameters and performs ordinary image transformations on
// request — with no knowledge of PuPPIeS whatsoever. The PSP only ever
// touches (a) opaque JPEG bytes, (b) opaque parameter JSON, and (c) the
// generic transform library; this separation is the paper's semi-honest
// threat model made concrete.
package psp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/admission"
	"puppies/internal/jpegc"
	"puppies/internal/parallel"
	"puppies/internal/searchidx"
	"puppies/internal/stats"
	"puppies/internal/transform"
)

// DefaultMaxUpload bounds request and response bodies unless overridden.
const DefaultMaxUpload = 64 << 20

// idempotencyHeader carries the client-generated key that lets the server
// deduplicate retried uploads.
const idempotencyHeader = "Idempotency-Key"

type entry struct {
	jpeg   []byte
	params json.RawMessage
}

// Server is the PSP HTTP service over a pluggable Store.
type Server struct {
	// MaxUpload caps upload body size in bytes; larger requests get
	// HTTP 413. Zero means DefaultMaxUpload. Set before Handler is used.
	MaxUpload int64

	// VariantCacheBytes budgets the encoded-output cache (re-encoded
	// transform JPEGs and pixel payloads) and CoeffCacheBytes the
	// decoded-coefficient cache. Zero means the package defaults;
	// negative disables that cache. Set before the first request.
	VariantCacheBytes int64
	CoeffCacheBytes   int64

	// MaxInflight caps concurrently served requests in weighted units
	// (transform routes count double — see the route table in chassis). Requests beyond
	// it queue briefly and are then shed with 429 + Retry-After. Zero means
	// DefaultInflightPerProc per GOMAXPROCS; negative disables admission
	// control. Set before Handler is used.
	MaxInflight int
	// AdmitWait bounds how long a request may queue for admission before
	// being shed. Zero means admission.DefaultMaxWait.
	AdmitWait time.Duration
	// AdmitQueue bounds the admission wait queue; arrivals beyond it shed
	// instantly. Zero means admission.DefaultQueueFactor times capacity.
	AdmitQueue int
	// AdmitRetryAfter is the base Retry-After hint on shed responses (the
	// effective hint scales with queue depth). Zero means
	// admission.DefaultRetryAfter.
	AdmitRetryAfter time.Duration

	// SearchIndex, when set before the first request, backs /v1/search —
	// e.g. a durable searchidx.OpenDir index that pspd snapshots across
	// restarts. Nil means a fresh in-memory index.
	SearchIndex *searchidx.Index

	searchOnce    sync.Once
	searchQueries atomic.Uint64
	searchHits    atomic.Uint64

	storeOnce sync.Once
	store     Store

	cacheOnce sync.Once
	scache    *serveCache

	chOnce sync.Once
	ch     *Chassis
}

// chassis returns the serving chassis, built on first use from the
// admission knobs. Its route table prices each route in admission units:
// transform routes do decode + DCT-domain work and cost roughly twice a
// store read/write, and search by image bytes decodes a JPEG too (the by-ID
// form is cheaper but shares the route). The batch envelope is free — each
// item acquires its own unit inside the batch reader, so a batch sheds per
// item instead of all-or-nothing. healthz and statz bypass admission: they
// are how operators and gateways observe an overloaded server.
func (s *Server) chassis() *Chassis {
	s.chOnce.Do(func() {
		s.ch = NewChassis([]Route{
			{"GET /v1/healthz", "", 0, s.handleHealthz},
			{"GET /v1/statz", "", 0, s.handleStatz},
			{"GET /v1/images", "list", 1, s.handleList},
			{"POST /v1/images", "upload", 1, s.handleUpload},
			{"POST /v1/images:batch", "batch", 0, func(w http.ResponseWriter, r *http.Request) {
				s.chassis().ServeBatch(w, r, s.maxUpload(), parallel.Workers(), s.storeBatchItem)
			}},
			{"PUT /v1/images/{id}", "put", 1, s.handlePutImage},
			{"GET /v1/images/{id}", "get", 1, s.handleGet},
			{"GET /v1/images/{id}/params", "params", 1, s.handleParams},
			{"GET /v1/images/{id}/transformed", "transformed", 2, s.handleTransformed},
			{"GET /v1/images/{id}/pixels", "pixels", 2, s.handlePixels},
			{"GET /v1/search", "search", 2, s.handleSearch},
			{"POST /v1/search", "search", 2, s.handleSearch},
		}, admission.Config{
			Capacity:   s.MaxInflight,
			MaxWait:    s.AdmitWait,
			MaxQueue:   s.AdmitQueue,
			RetryAfter: s.AdmitRetryAfter,
		}, DefaultInflightPerProc)
	})
	return s.ch
}

// SetDraining flips the server into (or out of) draining mode: GET
// /v1/healthz answers 503 with Retry-After while every other route keeps
// serving, and requests that would have to queue for admission are shed
// (see Chassis.SetDraining).
func (s *Server) SetDraining(v bool) { s.chassis().SetDraining(v) }

// NewServer returns a PSP over an ephemeral in-memory store.
func NewServer() *Server {
	return NewServerWith(NewMemStore())
}

// NewServerWith returns a PSP over the given store — e.g. a
// blobstore.Store for crash-safe durability.
func NewServerWith(st Store) *Server {
	s := &Server{}
	s.storeOnce.Do(func() {}) // mark initialized
	s.store = st
	return s
}

// st returns the store, lazily defaulting a zero-value Server to memory.
func (s *Server) st() Store {
	s.storeOnce.Do(func() { s.store = NewMemStore() })
	return s.store
}

// cache returns the serving-path cache layer, built on first use from the
// configured budgets.
func (s *Server) cache() *serveCache {
	s.cacheOnce.Do(func() {
		s.scache = newServeCache(
			budgetOrDefault(s.VariantCacheBytes, DefaultVariantCacheBytes),
			budgetOrDefault(s.CoeffCacheBytes, DefaultCoeffCacheBytes),
		)
	})
	return s.scache
}

// CacheStats snapshots the serving-cache counters (the /v1/statz body).
func (s *Server) CacheStats() CacheStatsResponse {
	return s.cache().statsResponse()
}

// Len reports how many images are stored.
func (s *Server) Len() int { return s.st().Len() }

func (s *Server) maxUpload() int64 {
	if s.MaxUpload > 0 {
		return s.MaxUpload
	}
	return DefaultMaxUpload
}

// UploadRequest is the POST /v1/images body.
type UploadRequest struct {
	// Image is the perturbed JPEG bytes (base64 in JSON).
	Image []byte `json:"image"`
	// Params is the opaque public-parameter document.
	Params json.RawMessage `json:"params"`
}

// UploadResponse carries the assigned image ID, plus the near-duplicate
// hint when the signature index already held a close match: DuplicateOf
// names the earlier image and Distance its signature distance. The upload
// is stored either way — deduplication is the caller's decision.
type UploadResponse struct {
	ID          string `json:"id"`
	DuplicateOf string `json:"duplicateOf,omitempty"`
	Distance    uint32 `json:"distance,omitempty"`
}

// ListResponse is the GET /v1/images body.
type ListResponse struct {
	IDs []string `json:"ids"`
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string `json:"status"`
	Images int    `json:"images"`
}

// Handler returns the HTTP API:
//
//	GET  /v1/healthz                     liveness + store size
//	GET  /v1/statz                       serving-cache statistics
//	GET  /v1/images                      list stored image IDs
//	POST /v1/images                      upload {image, params} -> {id}
//	POST /v1/images:batch                multipart streaming batch upload;
//	                                     each part is one upload body, parts
//	                                     validate in parallel (see batch.go)
//	PUT  /v1/images/{id}                 store under a caller-chosen ID
//	                                     (idempotent; 409 on byte conflict)
//	GET  /v1/images/{id}                 stored JPEG bytes
//	GET  /v1/images/{id}/params          public parameters
//	GET  /v1/images/{id}/transformed?spec=J  transformed, re-encoded JPEG
//	GET  /v1/images/{id}/pixels?spec=J   transformed pixels, lossless PLNR
//	GET  /v1/search?id=X&k=K             k-NN over the signature index
//	POST /v1/search?k=K                  same, querying by image bytes
//	                                     (raw image/jpeg body or an
//	                                     UploadRequest JSON document)
//
// where J is a URL-encoded transform.Spec JSON document. Uploads may carry
// an Idempotency-Key header; repeats with the same key return the
// originally assigned ID without storing a second copy.
//
// Image representations are immutable, so every image GET carries a strong
// ETag and Cache-Control: immutable, and honors If-None-Match with 304.
// Transformed and pixel outputs are served through the cache layer (see
// cache.go): an encoded-variant LRU over a decoded-coefficient LRU, with
// concurrent identical requests collapsed into one computation.
func (s *Server) Handler() http.Handler { return s.chassis().Handler() }

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{Status: "ok", Images: s.Len()}
	if s.chassis().Draining() {
		h.Status = "draining"
	}
	WriteHealth(w, h.Status == "ok", h)
}

// StatzResponse is the GET /v1/statz body: cache statistics plus admission
// counters and per-route latency quantiles.
type StatzResponse struct {
	CacheStatsResponse
	Admission admission.Stats                    `json:"admission"`
	Search    SearchStats                        `json:"search"`
	LatencyNs map[string]stats.HistogramSnapshot `json:"latencyNs"`
}

// Statz snapshots the full server statistics (the /v1/statz body).
func (s *Server) Statz() StatzResponse {
	adm, lat := s.chassis().Stats()
	return StatzResponse{
		CacheStatsResponse: s.CacheStats(),
		Admission:          adm,
		Search:             s.searchStats(),
		LatencyNs:          lat,
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Statz())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids := s.st().IDs()
	sort.Strings(ids)
	if ids == nil {
		ids = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ListResponse{IDs: ids})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	limit := s.maxUpload()
	// Read one byte past the limit so oversized bodies are detected
	// rather than silently truncated into undecodable JSON.
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
		return
	}
	res := s.storeOne(body, strings.TrimSpace(r.Header.Get(idempotencyHeader)))
	if res.Error != "" {
		httpError(w, res.Status, "%s", res.Error)
		return
	}
	writeUploadResponse(w, res)
}

func writeUploadResponse(w http.ResponseWriter, res BatchResult) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(UploadResponse{ID: res.ID, DuplicateOf: res.DuplicateOf, Distance: res.Distance}); err != nil {
		return
	}
}

// validImageID bounds caller-chosen IDs for PUT /v1/images/{id} to names
// every Store implementation accepts (blobstore uses IDs as file names).
func validImageID(id string) error {
	if id == "" || len(id) > 100 {
		return fmt.Errorf("id length %d out of range [1,100]", len(id))
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("id contains unsafe character %q", r)
		}
	}
	if strings.HasPrefix(id, ".") {
		return errors.New("id may not start with a dot")
	}
	return nil
}

// paramsEqual compares two public-parameter documents, treating absent,
// empty, and JSON null as the same thing (the /params route serves "null"
// for an absent document, so replication round-trips through it).
func paramsEqual(a, b json.RawMessage) bool {
	norm := func(p json.RawMessage) []byte {
		t := bytes.TrimSpace(p)
		if len(t) == 0 || bytes.Equal(t, []byte("null")) {
			return nil
		}
		return t
	}
	return bytes.Equal(norm(a), norm(b))
}

// handlePutImage stores an upload under a caller-chosen ID — the
// replication primitive the cluster gateway builds on. Semantics are
// compare-on-conflict idempotent: a PUT of bytes identical to the stored
// record answers 200 with the ID (so retries, re-replication, and read
// repair all converge), while a PUT of different bytes under an existing ID
// answers 409 and never overwrites. An Idempotency-Key is honored exactly
// like POST's.
func (s *Server) handlePutImage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := validImageID(id); err != nil {
		httpError(w, http.StatusBadRequest, "bad image id: %v", err)
		return
	}
	limit := s.maxUpload()
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > limit {
		httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
		return
	}
	var req UploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Image) == 0 {
		httpError(w, http.StatusBadRequest, "empty image")
		return
	}

	key := strings.TrimSpace(r.Header.Get(idempotencyHeader))
	if key != "" {
		if prev, seen := s.st().IDForKey(key); seen {
			writeUploadResponse(w, BatchResult{ID: prev})
			return
		}
	}

	// An existing record under this ID decides the request without a
	// store write: identical bytes are an idempotent success, different
	// bytes are a conflict that must never be silently overwritten.
	if jpeg, params, ok, err := s.st().Get(id); err != nil {
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return
	} else if ok {
		if bytes.Equal(jpeg, req.Image) && paramsEqual(params, req.Params) {
			writeUploadResponse(w, BatchResult{ID: id})
			return
		}
		httpError(w, http.StatusConflict, "image %q already stored with different content", id)
		return
	}

	img, err := jpegc.Decode(bytes.NewReader(req.Image))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "not a decodable baseline JPEG: %v", err)
		return
	}
	// Replicas index too: the gateway's scatter-gather search only degrades
	// gracefully if every shard holding a copy can answer for it.
	sig := searchidx.Compute(img, req.Params)
	img.Recycle()
	canonical, err := s.st().Put(id, req.Image, req.Params, key)
	if err != nil {
		// A concurrent PUT may have stored the ID between the check and
		// the write (blobstore refuses duplicate IDs). Re-read and apply
		// the same compare-on-conflict rule instead of failing the retry.
		if jpeg, params, ok, gerr := s.st().Get(id); gerr == nil && ok {
			if bytes.Equal(jpeg, req.Image) && paramsEqual(params, req.Params) {
				writeUploadResponse(w, BatchResult{ID: id})
				return
			}
			httpError(w, http.StatusConflict, "image %q already stored with different content", id)
			return
		}
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return
	}
	s.searchIdx().Add(canonical, sig)
	writeUploadResponse(w, BatchResult{ID: canonical})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *entry {
	id := r.PathValue("id")
	jpeg, params, ok, err := s.st().Get(id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "store: %v", err)
		return nil
	}
	if !ok {
		httpError(w, http.StatusNotFound, "image %q not found", id)
		return nil
	}
	return &entry{jpeg: jpeg, params: params}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	etag := strongETag("R", id, "")
	sc := s.cache()
	// The raw bytes live in the store already; the conditional check still
	// needs the lookup so an unknown ID stays a 404, not a bogus 304.
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	sc.serveBytes(w, r, etag, "image/jpeg", e.jpeg)
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	etag := strongETag("M", id, "")
	sc := s.cache()
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	body := []byte(e.params)
	if len(body) == 0 {
		body = []byte("null")
	}
	sc.serveBytes(w, r, etag, "application/json", body)
}

func parseSpec(r *http.Request) (transform.Spec, error) {
	raw := r.URL.Query().Get("spec")
	if strings.TrimSpace(raw) == "" {
		return transform.Spec{Op: transform.OpNone}, nil
	}
	var spec transform.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return transform.Spec{}, err
	}
	return spec, nil
}

// handlerError carries an HTTP status (and optional error class) out of a
// singleflight computation so every collapsed waiter reports it the same
// way.
type handlerError struct {
	code  int
	class string
	msg   string
}

func (e *handlerError) Error() string { return e.msg }

// writeComputeError maps a computation failure onto the HTTP response; a
// classed error additionally sets the X-PSP-Error-Class header so clients
// type it (e.g. a corrupt stored image becomes ErrCorrupt, not a retried
// 500).
func writeComputeError(w http.ResponseWriter, err error) {
	var he *handlerError
	if errors.As(err, &he) {
		if he.class != "" {
			w.Header().Set(errorClassHeader, he.class)
		}
		httpError(w, he.code, "%s", he.msg)
		return
	}
	httpError(w, http.StatusInternalServerError, "%v", err)
}

// corruptStoredError marks a stored image that no longer decodes: upload
// validated it, so this is storage-layer damage. Served as a 500 with the
// corrupt class — terminal for retry logic, not a transient failure.
func corruptStoredError(err error) *handlerError {
	return &handlerError{
		code:  http.StatusInternalServerError,
		class: errorClassCorrupt,
		msg:   fmt.Sprintf("stored image corrupt: %v", err),
	}
}

// serveVariant is the shared serving path of /transformed and /pixels:
// variant-cache fast path, conditional GET, then singleflight-collapsed
// compute with the result admitted to the cache.
func (s *Server) serveVariant(w http.ResponseWriter, r *http.Request, route, contentType string, compute func(e *entry, spec transform.Spec) ([]byte, error)) {
	id := r.PathValue("id")
	spec, err := parseSpec(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	if route == "P" && spec.Op == transform.OpCompress {
		httpError(w, http.StatusBadRequest, "compression has no pixel form; use /transformed")
		return
	}
	key := variantKey(route, id, spec.Key())
	etag := strongETag(route, id, spec.Key())
	sc := s.cache()

	// Hot path: encoded bytes already cached — no store read, no decode.
	if body, ok := sc.variants.Get(key); ok {
		sc.serveBytes(w, r, etag, contentType, body)
		return
	}
	e := s.lookup(w, r)
	if e == nil {
		return
	}
	// The image exists and is immutable, so a matching validator is
	// authoritative even though the variant bytes were never computed (or
	// were evicted): the client already holds them.
	if etagMatches(r, etag) {
		sc.writeNotModified(w, etag)
		return
	}
	body, err, _ := sc.tflight.Do(key, func() ([]byte, error) {
		if body, ok := sc.variants.Get(key); ok {
			return body, nil
		}
		body, err := compute(e, spec)
		if err != nil {
			return nil, err
		}
		sc.transformsComputed.Add(1)
		sc.variants.Add(key, body, int64(len(body)))
		return body, nil
	})
	if err != nil {
		writeComputeError(w, err)
		return
	}
	sc.serveBytes(w, r, etag, contentType, body)
}

func (s *Server) handleTransformed(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveVariant(w, r, "T", "image/jpeg", func(e *entry, spec transform.Spec) ([]byte, error) {
		img, err := s.cache().decodeStored(id, e.jpeg)
		if err != nil {
			return nil, corruptStoredError(err)
		}
		out, err := s.applyTransform(e, img, spec)
		if err != nil {
			return nil, &handlerError{code: http.StatusBadRequest, msg: fmt.Sprintf("transform: %v", err)}
		}
		buf := getBuf()
		defer putBuf(buf)
		if err := out.Encode(buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
		}
		return cloneBytes(buf), nil
	})
}

// applyTransform executes a /transformed compute, routing eligible
// downscales of unprotected images through the scaled-decode planner.
// Protected images (those stored with public parameters) always take the
// full path: authorized receivers run shadow-ROI recovery against the
// transformed bytes we serve, and that arithmetic needs the exact
// full-resolution transform definition, not a planner-equivalent image.
// The path choice depends only on immutable per-image state and the spec,
// so a given variant cache key always computes the same bytes.
func (s *Server) applyTransform(e *entry, img *jpegc.Image, spec transform.Spec) (*jpegc.Image, error) {
	if !paramsEqual(e.params, nil) {
		return transform.Apply(img, spec)
	}
	return transform.ApplyPlanned(img, spec)
}

func (s *Server) handlePixels(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.serveVariant(w, r, "P", "application/octet-stream", func(e *entry, spec transform.Spec) ([]byte, error) {
		img, err := s.cache().decodeStored(id, e.jpeg)
		if err != nil {
			return nil, corruptStoredError(err)
		}
		// Recovery-grade route: receivers subtract shadow planes computed
		// with the full-resolution ApplyPlanar, so this path never takes
		// the scaled-decode planner.
		pix, err := img.ToPlanar()
		if err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("decode: %v", err)}
		}
		out, err := transform.ApplyPlanar(pix, spec)
		if err != nil {
			return nil, &handlerError{code: http.StatusBadRequest, msg: fmt.Sprintf("transform: %v", err)}
		}
		buf := getBuf()
		defer putBuf(buf)
		if err := out.EncodeBinary(buf); err != nil {
			return nil, &handlerError{code: http.StatusInternalServerError, msg: fmt.Sprintf("encode: %v", err)}
		}
		return cloneBytes(buf), nil
	})
}
