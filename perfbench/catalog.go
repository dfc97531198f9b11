package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"time"

	"puppies/internal/psp"
	"puppies/internal/transform"
)

// item is one uploaded catalog photo.
type item struct {
	id     string
	photo  *photo // keys and regions; pixels dropped after upload
	jpeg   []byte // stored bytes
	params []byte // nil when unprotected
	ref    []byte // protected: unperturbed coefficients (Lemma III.1 reference)
	w, h   int
	// gx, gy is the MCU grid: coefficient-domain rotations and flips need
	// dimensions on it, and crops must start on it.
	gx, gy int
}

func (it *item) protected() bool { return it.params != nil }

// aligned reports whether lossless rotations and flips apply.
func (it *item) aligned() bool { return it.w%it.gx == 0 && it.h%it.gy == 0 }

// crop returns one of two fixed MCU-aligned crops of the photo, so repeated
// crop views hit the cache like any other spec.
func (it *item) crop(which int) transform.Spec {
	w := (it.w / 2) / it.gx * it.gx
	h := (it.h / 2) / it.gy * it.gy
	x, y := 0, 0
	if which == 1 {
		x = (it.w / 4) / it.gx * it.gx
		y = (it.h / 4) / it.gy * it.gy
	}
	return transform.Spec{Op: transform.OpCrop, X: x, Y: y, W: w, H: h}
}

// buildCatalog derives, protects and uploads n photos. Rank r's kind
// follows kindPattern; protect(r) says whether and how rank r is protected.
// Unprotected photos are stored as their camera files. Uploads carry a
// seed-derived Idempotency-Key, so the gateway assigns the same IDs (and
// replica sets) on every run of a seed.
func buildCatalog(b *bench, n int, protect func(r int) (protection, bool)) ([]*item, error) {
	scenes, err := genScenes(b, sceneKinds(catalogScenes, setupSlices*len(catalogScenes)))
	if err != nil {
		return nil, err
	}
	var byKind [numKinds][]*scene
	for _, sc := range scenes {
		byKind[sc.kind] = append(byKind[sc.kind], sc)
	}
	items := make([]*item, n)
	if err := b.setupPhase("catalog", n, func(r int) error {
		kind := kindPattern[r%len(kindPattern)]
		sc := byKind[kind][mix64(uint64(b.cfg.seed), uint64(r))%uint64(len(byKind[kind]))]
		p := derivePhoto(sc, r, b.cfg.seed)
		size := p.rgba.Bounds().Size()
		// The stdlib encoder writes 4:2:0, a 16x16 MCU grid.
		it := &item{photo: p, w: size.X, h: size.Y, gx: 16, gy: 16}
		camera, err := p.cameraJPEG()
		if err != nil {
			return err
		}
		if pr, ok := protect(r); ok {
			prot, err := protectLayered(nil, p, pr, camera, true)
			if err != nil {
				return err
			}
			it.jpeg, it.params, it.ref, it.gx, it.gy = prot.jpeg, prot.params, prot.ref, prot.gx, prot.gy
		} else {
			it.jpeg = camera
		}
		p.rgba = nil
		body, err := json.Marshal(psp.UploadRequest{Image: it.jpeg, Params: it.params})
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, b.cl.url+"/v1/images", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", fmt.Sprintf("perfbench-%d-%d", b.cfg.seed, r))
		resp, err := b.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("upload rank %d: %s: %s", r, resp.Status, out)
		}
		var up psp.UploadResponse
		if err := json.Unmarshal(out, &up); err != nil {
			return err
		}
		it.id = up.ID
		items[r] = it
		return nil
	}); err != nil {
		return nil, err
	}
	return items, nil
}

// get fetches path from the gateway over the benchmark's connections.
func (b *bench) get(sp *opSpans, path string) ([]byte, error) {
	var body []byte
	err := sp.do("psp.client", func() error {
		req, err := http.NewRequestWithContext(sp.context(), http.MethodGet, b.cl.url+path, nil)
		if err != nil {
			return err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
		}
		return nil
	})
	return body, err
}

// specQuery is the URL query a viewer sends for a transform spec.
func specQuery(spec transform.Spec) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec of plain fields always marshals
	}
	return "?spec=" + url.QueryEscape(string(raw))
}

// zipfRanks returns n ranks of a catalog of size photos in seeded random
// order, each rank r appearing in proportion to 1/(r+1)^1.1 (Zipf 1.1),
// apportioned exactly by largest remainders. Exact counts keep the sampling
// noise of the popularity draw out of the run: only which photo holds a
// rank and the order follow the seed.
func zipfRanks(seed int64, salt uint64, size, n int) []int {
	weights := make([]float64, size)
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -1.1)
		sum += weights[r]
	}
	counts := make([]int, size)
	order := make([]int, size)
	total := 0
	for r, w := range weights {
		counts[r] = int(float64(n) * w / sum)
		total += counts[r]
		order[r] = r
	}
	frac := func(r int) float64 { return float64(n)*weights[r]/sum - float64(counts[r]) }
	sort.SliceStable(order, func(i, j int) bool { return frac(order[i]) > frac(order[j]) })
	for i := 0; total < n; i++ {
		counts[order[i]]++
		total++
	}
	out := make([]int, 0, n)
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, r)
		}
	}
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed), salt) >> 1)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// replayer times the serving miss path of first-touch responses on the
// stored bytes after the timed phase: decode, then the planner (unprotected
// /transformed), transform.Apply (protected /transformed) or
// transform.ApplyPlanar (/pixels), then encode.
type replayer struct {
	ns map[string]float64
}

func (r *replayer) timeIt(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	r.ns[name] += float64(time.Since(t0))
	return err
}
