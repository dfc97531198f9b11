package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"puppies/internal/psp"
)

// Span depths: an op's own span, the client-side layer calls it makes, the
// gateway handler, a shard handler, and a shard's store calls. A layer's
// self time is the part of the op during which it is the deepest active
// span, so the layers and the unattributed rest add up to the op latency.
const (
	depthOp = iota
	depthClient
	depthGateway
	depthShard
	depthStore
)

// opHeader carries the op ID from the benchmark's client to the gateway, and
// from the gateway to the shards it calls on the op's behalf.
const opHeader = "X-Bench-Op"

// spanRec is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch.
type spanRec struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Depth  int    `json:"depth"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard"`
	Path   string `json:"path,omitempty"`
	// Upload is the image ID a gateway upload answered with; shard PUTs of
	// that ID belong to the same op.
	Upload string `json:"upload,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []spanRec

	// inShard maps a goroutine serving a traced shard request to that
	// request's span, so store calls made on it can be attributed: the
	// psp.Store interface carries no context.
	inShard sync.Map // goroutine id -> *spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }

func (tr *tracer) add(s spanRec) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// opSpans records one op's client-side spans. A nil *opSpans (untraced op)
// just runs the calls.
type opSpans struct {
	tr    *tracer
	op    int64
	id    int64
	start time.Time
}

// beginOp starts op's root span at start; it returns nil when tr is nil.
func (tr *tracer) beginOp(op int64, start time.Time) *opSpans {
	if tr == nil {
		return nil
	}
	return &opSpans{tr: tr, op: op, id: tr.nextID.Add(1), start: start}
}

// end closes the root span at t, the instant the op's latency ends.
func (s *opSpans) end(t time.Time) {
	if s == nil {
		return
	}
	s.tr.add(spanRec{Name: "op", Op: s.op, ID: s.id, Depth: depthOp, Start: s.tr.since(s.start), End: s.tr.since(t), Shard: -1})
}

// do runs f inside a client-side span named after the layer call.
func (s *opSpans) do(name string, f func() error) error {
	if s == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	s.record(name, t0, time.Now())
	return err
}

// record adds a client-side span that ran from t0 to t1.
func (s *opSpans) record(name string, t0, t1 time.Time) {
	if s == nil {
		return
	}
	s.tr.add(spanRec{Name: name, Op: s.op, ID: s.tr.nextID.Add(1), Parent: s.id, Depth: depthClient,
		Start: s.tr.since(t0), End: s.tr.since(t1), Shard: -1})
}

// context is the op's request context: tagged with the op ID when traced,
// so the benchmark's transport sends the ID to the gateway.
func (s *opSpans) context() context.Context {
	if s == nil {
		return context.Background()
	}
	return context.WithValue(context.Background(), opKey{}, s.op)
}

type opKey struct{}

// opTransport copies the op ID from the request context into opHeader.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	return t.base.RoundTrip(r)
}

// gatewayHandler times the gateway's handler for traced requests and puts
// the op ID into the request context, which the gateway hands to its shard
// calls (reads, searches). Upload fan-out runs on a detached context, so
// shard PUTs are matched through the ID the gateway answered with.
func (tr *tracer) gatewayHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), opKey{}, op))
		rec := &bodyTap{ResponseWriter: w, keep: r.Method == http.MethodPost}
		t0 := time.Now()
		h.ServeHTTP(rec, r)
		t1 := time.Now()
		s := spanRec{Name: "cluster.gateway", Op: op, ID: tr.nextID.Add(1), Depth: depthGateway,
			Start: tr.since(t0), End: tr.since(t1), Shard: -1, Path: r.Method + " " + r.URL.Path}
		if rec.keep {
			var up psp.UploadResponse
			if json.Unmarshal(rec.body.Bytes(), &up) == nil {
				s.Upload = up.ID
			}
		}
		tr.add(s)
	})
}

// bodyTap keeps a copy of a (small) response body.
type bodyTap struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (b *bodyTap) Write(p []byte) (int, error) {
	if b.keep {
		b.body.Write(p)
	}
	return b.ResponseWriter.Write(p)
}

// shardHandler times shard k's handler for traced requests: those carrying
// an op ID, and every PUT (replicated uploads, matched to ops later).
func (tr *tracer) shardHandler(k int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil && r.Method != http.MethodPut {
			h.ServeHTTP(w, r)
			return
		}
		s := &spanRec{Name: "psp.shard", Op: op, ID: tr.nextID.Add(1), Depth: depthShard, Shard: k,
			Path: r.Method + " " + r.URL.Path}
		gid := goroutineID()
		tr.inShard.Store(gid, s)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		tr.inShard.Delete(gid)
		s.Start, s.End = tr.since(t0), tr.since(t1)
		tr.add(*s)
	})
}

// tracedStore times the store calls made while serving traced requests.
type tracedStore struct {
	psp.Store
	tr    *tracer
	shard int
}

func (s tracedStore) timed(t0 time.Time) {
	v, ok := s.tr.inShard.Load(goroutineID())
	if !ok {
		return
	}
	parent := v.(*spanRec)
	s.tr.add(spanRec{Name: "psp.store", Op: parent.Op, ID: s.tr.nextID.Add(1), Parent: parent.ID, Depth: depthStore,
		Start: s.tr.since(t0), End: s.tr.since(time.Now()), Shard: s.shard})
}

func (s tracedStore) Put(id string, jpeg, params []byte, key string) (string, error) {
	defer s.timed(time.Now())
	return s.Store.Put(id, jpeg, params, key)
}

func (s tracedStore) Get(id string) ([]byte, []byte, bool, error) {
	defer s.timed(time.Now())
	return s.Store.Get(id)
}

func (s tracedStore) IDForKey(key string) (string, bool) {
	defer s.timed(time.Now())
	return s.Store.IDForKey(key)
}

// goroutineID parses the current goroutine's ID from its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := strings.Fields(strings.TrimPrefix(string(buf[:n]), "goroutine "))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(f[0], 10, 64)
	return id
}

// snapshot returns the recorded spans with every shard PUT and its store
// calls assigned to the op whose gateway upload answered with that ID.
func (tr *tracer) snapshot() []spanRec {
	tr.mu.Lock()
	spans := append([]spanRec(nil), tr.spans...)
	tr.mu.Unlock()
	uploadOp := map[string]int64{}
	for _, s := range spans {
		if s.Upload != "" {
			uploadOp["PUT /v1/images/"+s.Upload] = s.Op
		}
	}
	shardOp := map[int64]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Depth == depthShard && s.Op == 0 {
			s.Op = uploadOp[s.Path]
		}
		if s.Depth == depthShard {
			shardOp[s.ID] = s.Op
		}
	}
	for i := range spans {
		if s := &spans[i]; s.Depth == depthStore {
			s.Op = shardOp[s.Parent]
		}
	}
	return spans
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is the per-op attribution of traced ops.
type breakdown struct {
	ops     int
	opNs    float64            // summed op latency
	selfNs  map[string]float64 // summed self time per layer name
	totalNs map[string]float64 // summed full span duration per layer name
	calls   map[string]int     // span count per layer name
}

// attribute splits each traced op's latency across its layers: at every
// instant of the op, the deepest active spans share the time equally, and
// time when only the op's own span is active is unattributed. Each span is
// clipped to the span one level up that it overlaps most (a shard call to
// its gateway request, the gateway request to the client call), so work
// that outlives its caller, such as a third replica's PUT after the
// quorum ack, is not charged to the op.
func attribute(spans []spanRec) *breakdown {
	b := &breakdown{selfNs: map[string]float64{}, totalNs: map[string]float64{}, calls: map[string]int{}}
	byOp := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for _, ss := range byOp {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Depth < ss[j].Depth })
		if ss[0].Depth != depthOp {
			continue // server spans of an op that was not traced
		}
		b.ops++
		b.opNs += float64(ss[0].End - ss[0].Start)
		var live []spanRec
		var cuts []int64
		for _, s := range ss {
			if s.Depth != depthOp {
				b.totalNs[s.Name] += float64(s.End - s.Start)
				b.calls[s.Name]++
				var best int64
				var parent *spanRec
				for i := range live {
					p := &live[i]
					if p.Depth != s.Depth-1 {
						continue
					}
					if ov := min(s.End, p.End) - max(s.Start, p.Start); ov > best {
						best, parent = ov, p
					}
				}
				if parent == nil {
					continue
				}
				s.Start, s.End = max(s.Start, parent.Start), min(s.End, parent.End)
			}
			live = append(live, s)
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, z := cuts[i], cuts[i+1]
			if z == a {
				continue
			}
			deepest, n := -1, 0
			for _, s := range live {
				if s.Start <= a && s.End >= z {
					switch {
					case s.Depth > deepest:
						deepest, n = s.Depth, 1
					case s.Depth == deepest:
						n++
					}
				}
			}
			share := float64(z-a) / float64(n)
			for _, s := range live {
				if s.Depth == deepest && s.Start <= a && s.End >= z {
					b.selfNs[selfName(s.Name)] += share
				}
			}
		}
	}
	return b
}

// selfName is the metric a span's self time is reported under.
func selfName(span string) string {
	switch span {
	case "op":
		return "trace.unattributed"
	case "psp.client":
		return "psp.client_gap"
	case "cluster.gateway":
		return "cluster.gateway_self"
	}
	return span
}

// check fails unless the layer self times add up to the op
// latency: a broken attribution must not print plausible numbers.
func (b *breakdown) check() error {
	var sum float64
	for _, v := range b.selfNs {
		sum += v
	}
	if b.ops == 0 {
		return fmt.Errorf("trace: no traced ops")
	}
	if d := sum - b.opNs; d > 1e-6*b.opNs+float64(b.ops) || -d > 1e-6*b.opNs+float64(b.ops) {
		return fmt.Errorf("trace: layer self times sum to %.0f ns, op latency to %.0f ns", sum, b.opNs)
	}
	return nil
}
