package psp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/admission"
	"puppies/internal/stats"
)

// The serving chassis (DESIGN.md §19) is the HTTP plumbing pspd (Server)
// and pspgw (cluster.Gateway) share: one route table behind admission
// control and per-route latency histograms, the 429 shed response, drain
// state and the healthz answer, the multipart batch reader, and the
// daemons' listen → serve → drain → shutdown sequence. Each daemon keeps
// only what differs: its handlers, its per-item batch step, and its statz
// body around the chassis's admission and latency blocks.

// DefaultInflightPerProc scales the PSP's default admission capacity:
// weighted units of concurrently served requests per GOMAXPROCS. Generous
// on purpose — admission control exists to stop queue collapse under
// extreme overload, not to throttle ordinary bursts.
const DefaultInflightPerProc = 16

// Route is one entry of a daemon's route table.
type Route struct {
	// Pattern is the http.ServeMux pattern, e.g. "GET /v1/images/{id}".
	Pattern string
	// Name keys the route's latency histogram in /v1/statz; patterns may
	// share a name. An empty name marks an operator route (healthz, statz,
	// admin): it bypasses admission and records no latency, so operators can
	// observe and repair a daemon even while every client route sheds.
	Name string
	// Weight prices the route in admission units. Zero admits for free: the
	// batch envelope, whose items each pay one unit inside the reader.
	Weight  int
	Handler http.HandlerFunc
}

// Chassis serves one route table. It owns admission, latency recording,
// shedding and drain state for every route registered on it.
type Chassis struct {
	mux      *http.ServeMux
	admit    *admission.Controller // nil admits everything
	lat      map[string]*stats.Histogram
	draining atomic.Bool
}

// NewChassis registers routes behind an admission controller built from
// cfg. cfg.Capacity is the daemon's MaxInflight: zero means perProc units
// per GOMAXPROCS, and a negative capacity disables shedding.
func NewChassis(routes []Route, cfg admission.Config, perProc int) *Chassis {
	c := &Chassis{mux: http.NewServeMux(), lat: make(map[string]*stats.Histogram)}
	if cfg.Capacity >= 0 {
		if cfg.Capacity == 0 {
			cfg.Capacity = perProc * runtime.GOMAXPROCS(0)
		}
		c.admit = admission.New(cfg)
	}
	for _, rt := range routes {
		if rt.Name == "" {
			c.mux.HandleFunc(rt.Pattern, rt.Handler)
			continue
		}
		hist := c.lat[rt.Name]
		if hist == nil {
			hist = &stats.Histogram{}
			c.lat[rt.Name] = hist
		}
		c.mux.HandleFunc(rt.Pattern, c.admitted(rt.Weight, hist, rt.Handler))
	}
	return c
}

// admitted fronts a client route with admission and latency recording:
// shed requests answer 429 (see writeShed), admitted ones release their
// units when h returns and record its wall time into the route histogram.
func (c *Chassis) admitted(weight int, hist *stats.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if weight > 0 {
			release, out := c.admit.Acquire(r.Context(), weight)
			if out != admission.Admitted {
				writeShed(w, c.admit.RetryAfterHint(), out)
				return
			}
			defer release()
		}
		start := time.Now()
		h(w, r)
		hist.Record(time.Since(start))
	}
}

// Handler returns the registered routes.
func (c *Chassis) Handler() http.Handler { return c.mux }

// writeShed is the one shed response shape: 429, a fractional-seconds
// Retry-After the client honors exactly, and the overloaded error class so
// StatusError maps it to ErrOverloaded.
func writeShed(w http.ResponseWriter, hint time.Duration, out admission.Outcome) {
	if hint > 0 {
		w.Header().Set("Retry-After", strconv.FormatFloat(hint.Seconds(), 'f', 3, 64))
	}
	w.Header().Set(errorClassHeader, errorClassOverloaded)
	httpError(w, http.StatusTooManyRequests, "overloaded (%s)", out)
}

// SetDraining flips drain mode. The daemon's healthz answers 503 (see
// WriteHealth) so routing layers stop sending traffic, while every other
// route keeps serving. Admission tightens too: requests that would have to
// queue are shed immediately, so shutdown never grows a backlog it is about
// to abandon.
func (c *Chassis) SetDraining(v bool) {
	c.draining.Store(v)
	c.admit.SetDraining(v)
}

// Draining reports whether SetDraining(true) is in effect.
func (c *Chassis) Draining() bool { return c.draining.Load() }

// WriteHealth answers GET /v1/healthz with body: 200 when ok, otherwise 503
// with Retry-After: 1 (a draining daemon, or a gateway with no healthy
// shard).
func WriteHealth(w http.ResponseWriter, ok bool, body any) {
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(body)
}

// Stats returns the admission counters and the latency quantiles of every
// route that has served a request: the blocks both daemons' /v1/statz
// bodies carry as "admission" and "latencyNs".
func (c *Chassis) Stats() (admission.Stats, map[string]stats.HistogramSnapshot) {
	lat := make(map[string]stats.HistogramSnapshot, len(c.lat))
	for name, h := range c.lat {
		if h.Count() > 0 {
			lat[name] = h.Snapshot()
		}
	}
	return c.admit.Stats(), lat
}

// BatchPart is one batch item as ServeBatch hands it to a daemon. Body and
// Params borrow pooled buffers that are recycled as soon as the item
// function returns; anything that outlives the call must copy them.
type BatchPart struct {
	// Key is the part's Idempotency-Key header, trimmed; may be empty.
	Key string
	// Raw marks Body as image bytes rather than an UploadRequest document.
	Raw  bool
	Body []byte
	// Params is a raw item's params part; nil when absent or empty.
	Params []byte
}

// batchItem is one in-flight batch entry: the reader loop fills it, a
// worker runs it and writes *slot. Workers never touch the slot slice
// itself, so the reader can keep appending without a lock.
type batchItem struct {
	slot   *BatchResult
	key    string
	raw    bool          // body is raw image bytes, not UploadRequest JSON
	buf    *bytes.Buffer // pooled; the worker recycles it
	params *bytes.Buffer // pooled; optional params for a raw item
	failed bool          // slot already holds a per-item error; do not dispatch
}

// run admits the item for one unit and hands it to item, then recycles its
// buffers. Each item pays its own admission unit — the envelope was free —
// so under overload a batch sheds per item with a 429 in that item's result
// slot rather than failing the whole envelope. The client re-uploads only
// the shed items; stored ones deduplicate by idempotency key.
func (it *batchItem) run(ctx context.Context, ctl *admission.Controller, item func(BatchPart) BatchResult) {
	if release, out := ctl.Acquire(ctx, 1); out != admission.Admitted {
		*it.slot = BatchResult{
			Error:  fmt.Sprintf("overloaded (%s); retry after %.3fs", out, ctl.RetryAfterHint().Seconds()),
			Status: http.StatusTooManyRequests,
		}
	} else {
		p := BatchPart{Key: it.key, Raw: it.raw, Body: it.buf.Bytes()}
		if it.params != nil && it.params.Len() > 0 {
			p.Params = it.params.Bytes()
		}
		*it.slot = item(p)
		release()
	}
	putBuf(it.buf)
	if it.params != nil {
		putBuf(it.params)
	}
}

// ServeBatch answers POST /v1/images:batch (protocol in batch.go) for both
// daemons. Parts are read sequentially off the wire into pooled buffers,
// each bounded by limit and the envelope by batchBodyFactor*limit, and
// handed to at most workers concurrent runs of item, so an item's work
// overlaps the next part still streaming in. Results keep item order.
func (c *Chassis) ServeBatch(w http.ResponseWriter, r *http.Request, limit int64, workers int, item func(BatchPart) BatchResult) {
	r.Body = http.MaxBytesReader(w, r.Body, batchBodyFactor*limit)
	mr, err := r.MultipartReader()
	if err != nil {
		httpError(w, http.StatusBadRequest, "batch requires multipart/form-data: %v", err)
		return
	}

	var (
		wg    sync.WaitGroup
		slots []*BatchResult
	)
	sem := make(chan struct{}, workers)
	dispatch := func(it *batchItem) {
		if it == nil || it.failed {
			return
		}
		wg.Add(1)
		// The semaphore is taken inside the goroutine, never in the read
		// loop: a paused reader closes the TCP window and the client stalls
		// on the ~200ms persist timer. Memory stays bounded anyway: buffered
		// parts never exceed the whole-batch body cap enforced above.
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			it.run(r.Context(), c.admit, item)
		}()
	}

	// pending holds a raw image item that may still receive a params part;
	// any other part (or EOF) flushes it to a worker first.
	var pending *batchItem
	fail := func(status int, format string, args ...any) {
		dispatch(pending)
		wg.Wait()
		if status != 0 {
			httpError(w, status, format, args...)
		}
	}
	// broken answers an envelope that stopped parsing. A client that went
	// away has no one to answer, and an incomplete result list must not
	// masquerade as the batch outcome; a body that arrived but is not
	// well-formed multipart is the client's error.
	broken := func(err error) {
		if r.Context().Err() != nil {
			fail(0, "")
			return
		}
		fail(http.StatusBadRequest, "malformed batch body: %v", err)
	}
	for i := 0; ; i++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				fail(http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", mbe.Limit)
				return
			}
			broken(err)
			return
		}
		if i >= batchMaxParts {
			fail(http.StatusBadRequest, "batch exceeds %d parts", batchMaxParts)
			return
		}

		// Only a non-image part can be a params part, so raw image parts —
		// the fast path's bulk — skip the Content-Disposition media-type
		// parse entirely.
		raw := strings.HasPrefix(part.Header.Get("Content-Type"), "image/")
		isParams := !raw && part.FormName() == BatchParamsPart
		if isParams && (pending == nil || !pending.raw) {
			fail(http.StatusBadRequest, "params part without a preceding image part")
			return
		}

		buf := getBuf()
		// Read one byte past the limit so oversized parts are detected
		// rather than silently truncated.
		n, rerr := io.Copy(buf, io.LimitReader(part, limit+1))
		if rerr != nil {
			putBuf(buf)
			var mbe *http.MaxBytesError
			if errors.As(rerr, &mbe) {
				fail(http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", mbe.Limit)
				return
			}
			broken(rerr)
			return
		}

		if isParams {
			// Attaches to the pending raw item; a failed pending item
			// (oversized) just swallows its params.
			if n > limit {
				putBuf(buf)
				pending.slot.Error = fmt.Sprintf("params part exceeds %d bytes", limit)
				pending.slot.Status = http.StatusRequestEntityTooLarge
				pending.failed = true
			} else if pending.failed {
				putBuf(buf)
			} else {
				pending.params = buf
			}
			dispatch(pending)
			pending = nil
			continue
		}

		// A new item: flush any raw item still waiting for params.
		dispatch(pending)
		pending = nil

		it := &batchItem{
			slot: new(BatchResult),
			key:  strings.TrimSpace(part.Header.Get(idempotencyHeader)),
			raw:  raw,
			buf:  buf,
		}
		slots = append(slots, it.slot)
		if n > limit {
			putBuf(buf)
			it.buf = nil
			it.failed = true
			// NextPart discards the rest of the part; the whole-body cap
			// above bounds how much an oversized part can make us skip.
			*it.slot = BatchResult{
				Error:  fmt.Sprintf("part exceeds %d bytes", limit),
				Status: http.StatusRequestEntityTooLarge,
			}
		}
		if it.raw {
			pending = it // may still receive a params part
		} else {
			dispatch(it)
		}
	}
	dispatch(pending)
	wg.Wait()
	if len(slots) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	results := make([]BatchResult, len(slots))
	for i, slot := range slots {
		results[i] = *slot
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(BatchResponse{Results: results})
}

// DaemonFlags are the serving flags pspd and pspgw share.
type DaemonFlags struct {
	// Admit holds -max-inflight (as Capacity), -admit-wait, -admit-queue
	// and -admit-retry-after, in the units of Server's and
	// cluster.Config's admission fields.
	Admit admission.Config
	// Drain bounds how long in-flight requests get to finish at shutdown;
	// DrainGrace is how long healthz advertises draining before the
	// listener closes.
	Drain, DrainGrace time.Duration
}

// RegisterDaemonFlags registers the shared serving flags on fs. perProc is
// the daemon's default admission capacity per GOMAXPROCS, quoted in
// -max-inflight's help.
func RegisterDaemonFlags(fs *flag.FlagSet, perProc int) *DaemonFlags {
	f := &DaemonFlags{}
	fs.IntVar(&f.Admit.Capacity, "max-inflight", 0, fmt.Sprintf("admission capacity in weighted units (0 = %d/proc default, negative disables shedding)", perProc))
	fs.DurationVar(&f.Admit.MaxWait, "admit-wait", 0, "max time a request may queue for admission before a 429 (0 = default)")
	fs.IntVar(&f.Admit.MaxQueue, "admit-queue", 0, "admission queue length beyond capacity (0 = default)")
	fs.DurationVar(&f.Admit.RetryAfter, "admit-retry-after", 0, "base Retry-After hint on 429 responses (0 = default)")
	fs.DurationVar(&f.Drain, "drain", 10*time.Second, "graceful shutdown drain timeout")
	fs.DurationVar(&f.DrainGrace, "drain-grace", 250*time.Millisecond, "how long healthz advertises draining (503) before the listener closes")
	return f
}

// Serve is the daemon lifecycle. It listens on addr and serves h until ctx
// is done. Then it calls setDraining(true) so healthz answers 503 while the
// listener stays open for DrainGrace — health-checking gateways observe the
// drain and stop routing here before connections start being refused — and
// shuts down, giving in-flight requests up to Drain. Progress lines go to
// stdout prefixed with name; ready, when non-nil, receives the bound
// address once the socket is open. A clean shutdown returns nil.
func (f *DaemonFlags) Serve(ctx context.Context, name, addr string, h http.Handler, setDraining func(bool), stdout io.Writer, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: listen: %w", name, err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(stdout, "%s listening on %s\n", name, ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		// Serve only returns before shutdown on a real listener error.
		return fmt.Errorf("%s: serve: %w", name, err)
	case <-ctx.Done():
	}

	setDraining(true)
	fmt.Fprintf(stdout, "%s draining: healthz now 503, closing listener in %s\n", name, f.DrainGrace)
	if f.DrainGrace > 0 {
		select {
		case <-time.After(f.DrainGrace):
		case err := <-serveErr:
			return fmt.Errorf("%s: serve: %w", name, err)
		}
	}

	fmt.Fprintf(stdout, "%s shutting down, draining for up to %s\n", name, f.Drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), f.Drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("%s: shutdown: %w", name, err)
	}
	// A clean Shutdown makes Serve return ErrServerClosed; that is the
	// success path, not a fatal error.
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("%s: serve: %w", name, err)
	}
	fmt.Fprintf(stdout, "%s stopped cleanly\n", name)
	return nil
}
