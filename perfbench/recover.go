package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"image"
	"math/rand"
	"sync"
	"time"

	"puppies"
	"puppies/internal/core"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/transform"
)

// recover is the receive path: closed loop, `clients` receivers holding the
// keys. Each op picks a protected photo by Zipf rank, fetches its params
// and one copy — the original, a lossless rotate90/flipH/MCU-aligned crop
// from /transformed, or a 1/2-scale or Gaussian copy from /pixels — recovers
// it and converts it to display pixels.
type recoverLoad struct {
	items     []*item
	timedFrom int

	reqMu sync.Mutex
	reqs  []recoverReq
	ranks [len(recoverMix)][]int // per copy slot: the period's ranks, Zipf apportioned

	mu    sync.Mutex
	sums  map[int]uint64 // op index -> display-pixel checksum
	seen  map[string]int // view key -> first op index that requested it
	hseed maphash.Seed
}

const (
	recoverCatalog = 80  // protected photos
	recoverWarm    = 360 // 20 blocks of recoverMix
	recoverLimit   = 400 * time.Millisecond
	// recoverRate sizes the timed phase: about the two-receiver closed-loop
	// rate of the reference host, in ops per second.
	recoverRate = 55.0
	// pixelPSNR is the documented bar for pixel-domain recovery: exact up to
	// float32 precision (core's TestReconstructPixelsExactUnderWrapRecorded).
	pixelPSNR = 55.0
)

// Copy kinds a receiver fetches.
const (
	copyOriginal = iota // GET /v1/images/{id}, then core.DecryptImage
	copyCoeff           // GET .../transformed, then core.ReconstructCoeff
	copyPixels          // GET .../pixels, then core.ReconstructPixels
)

type recoverReq struct {
	rank int
	kind int
	spec transform.Spec
}

func (r recoverReq) key(items []*item) string {
	return fmt.Sprintf("%s|%d|%s", items[r.rank].id, r.kind, r.spec.Key())
}

func (l *recoverLoad) limit() time.Duration { return recoverLimit }

// class is the view: the photo, copy kind and spec.
func (l *recoverLoad) class(b *bench, i int) string { return l.request(b, i).key(l.items) }

func (l *recoverLoad) setup(b *bench) error {
	items, err := buildCatalog(b, recoverCatalog, func(r int) (protection, bool) { return protectionFor(r), true })
	if err != nil {
		return err
	}
	l.items = items
	l.sums = map[int]uint64{}
	l.seen = map[string]int{}
	l.hseed = maphash.MakeSeed()
	return nil
}

// recoverMix is the copy mix per 18 ops, in order: originals; rotate90,
// flipH and MCU-aligned crops from /transformed; 1/2-scale and Gaussian
// copies from /pixels.
var recoverMix = [...]int{6, 2, 2, 2, 3, 3}

// request returns op i of the seeded sequence, which repeats with period
// recoverWarm: the warm-up fetches exactly the views the timed ops recover.
func (l *recoverLoad) request(b *bench, i int) recoverReq {
	l.reqMu.Lock()
	defer l.reqMu.Unlock()
	period := b.warmOps(recoverWarm)
	for len(l.reqs) <= i {
		j := len(l.reqs)
		if j >= period {
			l.reqs = append(l.reqs, l.reqs[j%period])
			continue
		}
		if j == 0 {
			blocks := (period + 17) / 18
			for s, n := range recoverMix {
				l.ranks[s] = zipfRanks(b.cfg.seed+2, uint64(s), len(l.items), blocks*n)
			}
		}
		slot := stratified(b.cfg.seed, j, recoverMix[:])
		var r recoverReq
		r.rank, l.ranks[slot] = l.ranks[slot][0], l.ranks[slot][1:]
		rng := rand.New(rand.NewSource(int64(mix64(uint64(b.cfg.seed)+2, uint64(j)) >> 1)))
		it := l.items[r.rank]
		switch slot {
		case 0:
			r.kind = copyOriginal
		case 1, 2:
			// Lossless rotations need dimensions on the MCU grid; other
			// photos get a crop instead.
			r.kind = copyCoeff
			switch {
			case !it.aligned():
				r.spec = it.crop(rng.Intn(2))
			case slot == 1:
				r.spec = transform.Spec{Op: transform.OpRotate90}
			default:
				r.spec = transform.Spec{Op: transform.OpFlipH}
			}
		case 3:
			r.kind, r.spec = copyCoeff, it.crop(rng.Intn(2))
		case 4:
			r.kind, r.spec = copyPixels, transform.Spec{Op: transform.OpScale, FactorX: 0.5, FactorY: 0.5}
		default:
			r.kind, r.spec = copyPixels, transform.Spec{Op: transform.OpFilter, Kernel: "gaussian3"}
		}
		l.reqs = append(l.reqs, r)
	}
	return l.reqs[i]
}

func (l *recoverLoad) copyPath(r recoverReq) string {
	id := l.items[r.rank].id
	switch r.kind {
	case copyCoeff:
		return "/v1/images/" + id + "/transformed" + specQuery(r.spec)
	case copyPixels:
		return "/v1/images/" + id + "/pixels" + specQuery(r.spec)
	}
	return "/v1/images/" + id
}

// fetch gets the params and the copy op r asks for.
func (l *recoverLoad) fetch(b *bench, sp *opSpans, r recoverReq) (params, data []byte, err error) {
	if params, err = b.get(sp, "/v1/images/"+l.items[r.rank].id+"/params"); err != nil {
		return nil, nil, err
	}
	data, err = b.get(sp, l.copyPath(r))
	return params, data, err
}

func (l *recoverLoad) op(b *bench, i int, sp *opSpans) (func(), error) {
	r := l.request(b, i)
	params, data, err := l.fetch(b, sp, r)
	if err != nil {
		return nil, err
	}
	var display image.Image
	if sp != nil {
		var rec *recovered
		if rec, err = recoverLayered(sp, r, data, params, l.items[r.rank].photo.keys); err == nil {
			display = rec.display
		}
	} else {
		display, err = recoverComposite(r, data, params, l.items[r.rank].photo.keys)
	}
	if err != nil {
		return nil, err
	}
	return func() {
		sum := l.checksum(display)
		l.mu.Lock()
		l.sums[i] = sum
		if _, ok := l.seen[r.key(l.items)]; !ok {
			l.seen[r.key(l.items)] = i
		}
		l.mu.Unlock()
	}, nil
}

func (l *recoverLoad) checksum(img image.Image) uint64 {
	rgba, ok := img.(*image.RGBA)
	if !ok {
		return 0 // color recoveries are always RGBA; 0 never matches a real sum
	}
	return maphash.Bytes(l.hseed, rgba.Pix)
}

// recoverComposite is the receiver's public call for each copy kind.
func recoverComposite(r recoverReq, data, params []byte, pairs []*keys.Pair) (image.Image, error) {
	switch r.kind {
	case copyCoeff:
		return puppies.UnprotectTransformed(data, params, r.spec, pairs)
	case copyPixels:
		return puppies.UnprotectTransformedPixels(data, params, r.spec, pairs)
	}
	return puppies.Unprotect(data, params, pairs)
}

// recovered is a layered recovery: the display image plus the recovered
// coefficients (original and lossless copies) or planes (pixel copies) the
// oracle compares with the references.
type recovered struct {
	display image.Image
	coeff   *jpegc.Image
	planar  *imgplane.Image
}

// recoverLayered issues the layer calls the puppies.Unprotect* composites
// are made of, each in its own span; the oracle requires its display
// pixels to equal the composite's.
func recoverLayered(sp *opSpans, r recoverReq, data, params []byte, pairs []*keys.Pair) (*recovered, error) {
	out := &recovered{}
	keyMap := make(map[string]*keys.Pair, len(pairs))
	for _, p := range pairs {
		keyMap[p.ID] = p
	}
	var pd *core.PublicData
	var img *jpegc.Image
	var err error
	if r.kind == copyPixels {
		var transformed *imgplane.Image
		if err = sp.do("imgplane.decode", func() (err error) {
			transformed, err = imgplane.DecodeBinary(bytes.NewReader(data))
			return err
		}); err != nil {
			return nil, err
		}
		if err = sp.do("core.params", func() (err error) {
			pd, err = core.DecodePublicData(params)
			return err
		}); err != nil {
			return nil, err
		}
		pd.Transform = r.spec
		if err = sp.do("core.reconstruct_pixels", func() (err error) {
			out.planar, err = core.ReconstructPixels(transformed, pd, keyMap)
			return err
		}); err != nil {
			return nil, err
		}
		err = sp.do("imgplane.to_std", func() error {
			out.display = out.planar.Quantize8().ToStdImage()
			return nil
		})
		return out, err
	}
	if err = sp.do("jpegc.decode", func() (err error) {
		img, err = jpegc.Decode(bytes.NewReader(data))
		return err
	}); err != nil {
		return nil, err
	}
	if err = sp.do("core.params", func() (err error) {
		pd, err = core.DecodePublicData(params)
		return err
	}); err != nil {
		return nil, err
	}
	if r.kind == copyCoeff {
		pd.Transform = r.spec
		err = sp.do("core.reconstruct_coeff", func() (err error) {
			out.coeff, err = core.ReconstructCoeff(img, pd, keyMap)
			return err
		})
	} else {
		err = sp.do("core.decrypt", func() error {
			_, err := core.DecryptImage(img, pd, keyMap)
			return err
		})
		out.coeff = img
	}
	if err != nil {
		return nil, err
	}
	var planar *imgplane.Image
	if err = sp.do("jpegc.to_planar", func() (err error) {
		planar, err = out.coeff.ToPlanar()
		return err
	}); err != nil {
		return nil, err
	}
	err = sp.do("imgplane.to_std", func() error {
		out.display = planar.Quantize8().ToStdImage()
		return nil
	})
	return out, err
}

func (l *recoverLoad) warm(b *bench) int {
	n := b.warmOps(recoverWarm)
	// The warm-up sends the prefix's server requests only: it fills the
	// shards' caches; client-side recovery has no cache to fill.
	b.warmup(n, func(i int) error {
		r := l.request(b, i)
		if _, _, err := l.fetch(b, nil, r); err != nil {
			return err
		}
		l.mu.Lock()
		if _, ok := l.seen[r.key(l.items)]; !ok {
			l.seen[r.key(l.items)] = i
		}
		l.mu.Unlock()
		return nil
	})
	return n
}

func (l *recoverLoad) measure(b *bench, first int) timed {
	l.timedFrom = first
	return b.closedLoop(first, b.warmOps(recoverWarm), recoverRate, func(i int, sp *opSpans) (func(), error) { return l.op(b, i, sp) })
}

// verify re-fetches every distinct view the timed ops recovered and
// recovers it through the layered calls. The recovered coefficients must
// equal the setup-time references exactly (Lemma III.1: the unperturbed
// coefficients, transformed losslessly for /transformed copies); pixel
// copies must reach pixelPSNR against the transformed reference planes;
// and every timed op's display pixels must equal the layered recovery's.
func (l *recoverLoad) verify(b *bench) int {
	views := map[string][]int{} // view key -> timed ops
	for i := range l.sums {
		k := l.reqs[i].key(l.items)
		views[k] = append(views[k], i)
	}
	keys := make([]string, 0, len(views))
	for k := range views {
		keys = append(keys, k)
	}
	var mu sync.Mutex
	bad := 0
	forEach(len(keys), func(j int) {
		ops := views[keys[j]]
		r := l.reqs[ops[0]]
		err := l.checkView(b, r, ops)
		if err != nil {
			b.mismatch("recover %s (ops %v): %v", l.copyPath(r), ops[:min(len(ops), 4)], err)
			mu.Lock()
			bad += len(ops)
			mu.Unlock()
		}
	})
	return bad
}

func (l *recoverLoad) checkView(b *bench, r recoverReq, ops []int) error {
	it := l.items[r.rank]
	params, data, err := l.fetch(b, nil, r)
	if err != nil {
		return err
	}
	rec, err := recoverLayered(nil, r, data, params, it.photo.keys)
	if err != nil {
		return err
	}
	sum := l.checksum(rec.display)
	for _, i := range ops {
		if l.sums[i] != sum {
			return fmt.Errorf("op %d displayed pixels that differ from the layered recovery's", i)
		}
	}
	return checkRecovered(r, rec, it.ref)
}

// checkRecovered compares a layered recovery with the reference
// coefficients ref (Lemma III.1): exactly for the original and lossless
// copies, to pixelPSNR for pixel copies.
func checkRecovered(r recoverReq, rec *recovered, refJPEG []byte) error {
	ref, err := jpegc.Decode(bytes.NewReader(refJPEG))
	if err != nil {
		return fmt.Errorf("decode reference: %w", err)
	}
	switch r.kind {
	case copyOriginal:
		return coeffEqual(rec.coeff, ref)
	case copyCoeff:
		want, err := transform.Apply(ref, r.spec)
		if err != nil {
			return err
		}
		return coeffEqual(rec.coeff, want)
	}
	pix, err := ref.ToPlanar()
	if err != nil {
		return err
	}
	want, err := transform.ApplyPlanar(pix, r.spec)
	if err != nil {
		return err
	}
	psnr, err := imgplane.ImagePSNR(rec.planar, want)
	if err != nil {
		return err
	}
	if psnr < pixelPSNR {
		return fmt.Errorf("pixel recovery PSNR %.2f dB, want >= %.0f dB", psnr, pixelPSNR)
	}
	return nil
}

// coeffEqual requires identical geometry and quantized coefficients.
func coeffEqual(got, want *jpegc.Image) error {
	if got.W != want.W || got.H != want.H || len(got.Comps) != len(want.Comps) {
		return fmt.Errorf("recovered %dx%d/%d comps, reference %dx%d/%d", got.W, got.H, len(got.Comps), want.W, want.H, len(want.Comps))
	}
	for c := range got.Comps {
		g, w := &got.Comps[c], &want.Comps[c]
		if g.BlocksW != w.BlocksW || g.BlocksH != w.BlocksH {
			return fmt.Errorf("component %d: %dx%d blocks, reference %dx%d", c, g.BlocksW, g.BlocksH, w.BlocksW, w.BlocksH)
		}
		for k := range g.Blocks {
			if g.Blocks[k] != w.Blocks[k] {
				return fmt.Errorf("component %d block %d differs from the reference", c, k)
			}
		}
	}
	return nil
}

// replay times the serving miss path of every /transformed and /pixels
// view first requested in the timed phase.
func (l *recoverLoad) replay(b *bench) map[string]float64 {
	rp := &replayer{ns: map[string]float64{}}
	for k, i := range l.seen {
		r := l.reqs[i]
		if i < l.timedFrom || r.kind == copyOriginal {
			continue
		}
		it := l.items[r.rank]
		var img *jpegc.Image
		if rp.timeIt("jpegc.miss_decode", func() (err error) {
			img, err = jpegc.Decode(bytes.NewReader(it.jpeg))
			return err
		}) != nil {
			b.mismatch("recover replay %s: decode failed", k)
			continue
		}
		route := "T"
		if r.kind == copyPixels {
			route = "P"
		}
		if _, err := serveLocal(rp, it, img, route, r.spec); err != nil {
			b.mismatch("recover replay %s: %v", k, err)
		}
	}
	return rp.ns
}
