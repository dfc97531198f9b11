package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/psp"
	"puppies/internal/transform"
)

// browse is the read path: an open loop of raw HTTP GETs, as a web viewer
// sends them, with Poisson arrivals at browseRate, Zipf(1.1)-ranked over a
// catalog of browseCatalog photos, one third protected. The catalog's
// decoded coefficients outgrow each shard's default coefficient cache, and
// an untimed warm-up prefix fills the caches before timing.
type browseLoad struct {
	items     []*item
	rng       *rand.Rand // arrival times
	timedFrom int        // index of the first timed op

	reqMu sync.Mutex
	reqs  []browseReq
	ranks [len(browseMix)][]int // per view: the period's ranks, Zipf apportioned

	mu     sync.Mutex
	bodies map[int][]byte // op index -> body, hashed after timing
	seen   map[string]int // view key -> first op index that requested it
}

const (
	browseCatalog = 200
	// browseRate is about a tenth of the 2-client closed-loop capacity of
	// the reference host: two connections queue behind every cache miss
	// (README.md). browseLimit is the latency limit slo_ok_ratio counts.
	browseRate  = 200.0
	browseLimit = 100 * time.Millisecond
	browseWarm  = 1500 // untimed requests before the timed phase
	searchK     = 8
)

// browseReq is one view: a transformed copy of a photo, or a by-ID
// "similar photos" search that the gateway scatters to every shard.
type browseReq struct {
	rank int
	view int
	spec transform.Spec
}

func (r browseReq) key(items []*item) string {
	if r.view == viewSearch {
		return "S|" + items[r.rank].id
	}
	return "T|" + items[r.rank].id + "|" + r.spec.Key()
}

func (l *browseLoad) limit() time.Duration { return browseLimit }

// class is the view, except that the device widths of one photo, each new,
// are one class: they all miss the caches and scale the same photo.
func (l *browseLoad) class(b *bench, i int) string {
	r := l.request(b, i)
	if r.view == viewWidth {
		return "W|" + l.items[r.rank].id
	}
	return r.key(l.items)
}

func (l *browseLoad) setup(b *bench) error {
	items, err := buildCatalog(b, browseCatalog, func(r int) (protection, bool) {
		return protectionFor(r / 3), r%3 == 1
	})
	if err != nil {
		return err
	}
	l.items = items
	l.bodies = map[int][]byte{}
	l.seen = map[string]int{}
	l.rng = rand.New(rand.NewSource(b.cfg.seed*31 + 7))
	return nil
}

// request returns op i of the seeded sequence. The sequence repeats with
// period browseWarm, so the warm-up prefix is exactly the working set the
// timed phase views again: timed misses are the device widths, which are
// new on every request, and whatever the caches evicted.
func (l *browseLoad) request(b *bench, i int) browseReq {
	l.reqMu.Lock()
	defer l.reqMu.Unlock()
	for len(l.reqs) <= i {
		l.reqs = append(l.reqs, l.draw(b, len(l.reqs)))
	}
	return l.reqs[i]
}

// browseMix is the view mix per 100 requests, in order: 1/8 thumbnails
// (the majority), 1/4 and 1/2 previews, rotate90, flipH, MCU-aligned crops,
// device widths never requested before, by-ID similar-photo searches.
var browseMix = [...]int{52, 11, 11, 6, 6, 8, 3, 3}

const (
	viewThumb = iota
	viewQuarter
	viewHalf
	viewRotate
	viewFlip
	viewCrop
	viewWidth
	viewSearch
)

func (l *browseLoad) draw(b *bench, i int) browseReq {
	period := b.warmOps(browseWarm)
	if i >= period {
		req := l.reqs[i%period]
		if req.view == viewWidth {
			req.spec = l.deviceWidth(req.rank, i)
		}
		return req
	}
	if i == 0 {
		// Each view's ranks follow Zipf exactly over the period's slots of
		// that view, so every (photo rank, view) count is the same on
		// every run.
		blocks := (period + 99) / 100
		for v, n := range browseMix {
			l.ranks[v] = zipfRanks(b.cfg.seed, uint64(v), len(l.items), blocks*n)
		}
	}
	req := browseReq{view: stratified(b.cfg.seed, i, browseMix[:])}
	req.rank, l.ranks[req.view] = l.ranks[req.view][0], l.ranks[req.view][1:]
	rng := rand.New(rand.NewSource(int64(mix64(uint64(b.cfg.seed), uint64(i)) >> 1)))
	it := l.items[req.rank]
	scale := func(f float64) transform.Spec {
		return transform.Spec{Op: transform.OpScale, FactorX: f, FactorY: f}
	}
	switch req.view {
	case viewThumb:
		req.spec = scale(0.125)
	case viewQuarter:
		req.spec = scale(0.25)
	case viewHalf:
		req.spec = scale(0.5)
	case viewRotate, viewFlip:
		// Lossless rotations need dimensions on the MCU grid; other photos
		// get a crop instead.
		switch {
		case !it.aligned():
			req.spec = it.crop(rng.Intn(2))
		case req.view == viewRotate:
			req.spec = transform.Spec{Op: transform.OpRotate90}
		default:
			req.spec = transform.Spec{Op: transform.OpFlipH}
		}
	case viewCrop:
		req.spec = it.crop(rng.Intn(2))
	case viewWidth:
		req.spec = l.deviceWidth(req.rank, i)
	}
	return req
}

// deviceWidth is a scale to a width nobody asked for before: 160-479 px,
// with a fractional part unique to the op index, so the spec is new.
func (l *browseLoad) deviceWidth(rank, i int) transform.Spec {
	f := (160 + float64(i%320) + float64(i/320)/1000) / float64(l.items[rank].w)
	return transform.Spec{Op: transform.OpScale, FactorX: f, FactorY: f}
}

func (l *browseLoad) path(r browseReq) string {
	id := l.items[r.rank].id
	if r.view == viewSearch {
		return "/v1/search?id=" + id + "&k=" + strconv.Itoa(searchK)
	}
	return "/v1/images/" + id + "/transformed" + specQuery(r.spec)
}

func (l *browseLoad) op(b *bench, i int, sp *opSpans) error {
	r := l.request(b, i)
	body, err := b.get(sp, l.path(r))
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.bodies[i] = body
	if _, ok := l.seen[r.key(l.items)]; !ok {
		l.seen[r.key(l.items)] = i
	}
	l.mu.Unlock()
	return nil
}

func (l *browseLoad) warm(b *bench) int {
	n := b.warmOps(browseWarm)
	l.request(b, n-1)
	b.warmup(n, func(i int) error { return l.op(b, i, nil) })
	return n
}

func (l *browseLoad) measure(b *bench, first int) timed {
	// Draw the timed requests up front: the generator should not compute
	// while it is due to send.
	period := b.warmOps(browseWarm)
	l.request(b, first+b.timedOps(browseRate, period))
	l.timedFrom = first
	return b.openLoop(first, period, browseRate, l.rng, func(i int, sp *opSpans) (func(), error) { return nil, l.op(b, i, sp) })
}

// verify hashes every body now that timing has stopped. All bodies of one
// view must be identical, and each distinct view must equal what a local
// decode, ApplyPlanned (unprotected) or Apply (protected), and encode of
// the stored bytes gives; a search must list the photo itself.
func (l *browseLoad) verify(b *bench) int {
	sums := map[string][32]byte{}
	firstOf := map[string]int{}
	bad := map[int]bool{}
	for i, body := range l.bodies {
		k := l.reqs[i].key(l.items)
		s := sha256.Sum256(body)
		if prev, ok := sums[k]; !ok {
			sums[k] = s
			firstOf[k] = i
		} else if prev != s {
			b.mismatch("browse op %d: %s served bytes that differ from op %d's", i, l.path(l.reqs[i]), firstOf[k])
			bad[i] = true
		}
	}
	// Group the distinct views by photo, so each stored image decodes once.
	byRank := map[int][]string{}
	for k := range sums {
		byRank[l.reqs[firstOf[k]].rank] = append(byRank[l.reqs[firstOf[k]].rank], k)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	var mu sync.Mutex
	badViews := map[string]bool{}
	forEach(len(ranks), func(j int) {
		it := l.items[ranks[j]]
		img, err := jpegc.Decode(bytes.NewReader(it.jpeg))
		if err != nil {
			b.mismatch("browse: decode stored %s: %v", it.id, err)
			return
		}
		for _, k := range byRank[ranks[j]] {
			r := l.reqs[firstOf[k]]
			var err error
			if r.view == viewSearch {
				err = checkSearch(l.bodies[firstOf[k]], it.id)
			} else {
				var want []byte
				want, err = serveLocal(nil, it, img, "T", r.spec)
				if err == nil && sha256.Sum256(want) != sums[k] {
					err = fmt.Errorf("served %d bytes, local %s gives %d different bytes", len(l.bodies[firstOf[k]]), pathName(it), len(want))
				}
			}
			if err != nil {
				b.mismatch("browse %s: %v", l.path(r), err)
				mu.Lock()
				badViews[k] = true
				mu.Unlock()
			}
		}
	})
	for i := range l.bodies {
		if i >= l.timedFrom && badViews[l.reqs[i].key(l.items)] {
			bad[i] = true
		}
	}
	n := 0
	for i := range bad {
		if i >= l.timedFrom {
			n++
		}
	}
	return n
}

func pathName(it *item) string {
	if it.protected() {
		return "Apply+Encode"
	}
	return "ApplyPlanned+Encode"
}

func checkSearch(body []byte, id string) error {
	var resp psp.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode search response: %w", err)
	}
	if resp.Partial {
		return fmt.Errorf("partial search answer")
	}
	for _, r := range resp.Results {
		if r.ID == id {
			return nil
		}
	}
	return fmt.Errorf("search by ID does not list the photo itself among %d results", len(resp.Results))
}

// replay times the miss path of every view first requested in the timed
// phase (the warm-up already paid for the rest).
func (l *browseLoad) replay(b *bench) map[string]float64 {
	rp := &replayer{ns: map[string]float64{}}
	for k, i := range l.seen {
		if i < l.timedFrom {
			continue
		}
		r := l.reqs[i]
		if r.view == viewSearch {
			continue
		}
		it := l.items[r.rank]
		var img *jpegc.Image
		if rp.timeIt("jpegc.miss_decode", func() (err error) {
			img, err = jpegc.Decode(bytes.NewReader(it.jpeg))
			return err
		}) != nil {
			b.mismatch("browse replay %s: decode failed", k)
			continue
		}
		if _, err := serveLocal(rp, it, img, "T", r.spec); err != nil {
			b.mismatch("browse replay %s: %v", k, err)
		}
	}
	return rp.ns
}

// serveLocal computes what a shard serves for a view of a stored image:
// /transformed ("T") runs the planner on unprotected images and
// transform.Apply on protected ones, then encodes with optimized tables;
// /pixels ("P") runs transform.ApplyPlanar and encodes PLNR. rp, when set,
// times each stage.
func serveLocal(rp *replayer, it *item, img *jpegc.Image, route string, spec transform.Spec) ([]byte, error) {
	stage := func(name string, f func() error) error {
		if rp == nil {
			return f()
		}
		return rp.timeIt(name, f)
	}
	var buf bytes.Buffer
	if route == "P" {
		var res *imgplane.Image
		if err := stage("transform.apply_planar", func() error {
			pix, err := img.ToPlanar()
			if err != nil {
				return err
			}
			res, err = transform.ApplyPlanar(pix, spec)
			return err
		}); err != nil {
			return nil, err
		}
		err := stage("jpegc.miss_encode", func() error { return res.EncodeBinary(&buf) })
		return buf.Bytes(), err
	}
	var out *jpegc.Image
	var err error
	if it.protected() {
		err = stage("transform.apply", func() (err error) {
			out, err = transform.Apply(img, spec)
			return err
		})
	} else {
		err = stage("transform.planned", func() (err error) {
			out, err = transform.ApplyPlanned(img, spec)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	err = stage("jpegc.miss_encode", func() error { return out.Encode(&buf, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}) })
	return buf.Bytes(), err
}
