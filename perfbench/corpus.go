package main

import (
	"bytes"
	"fmt"
	"image"
	"image/jpeg"
	"sync"

	"puppies"
	"puppies/internal/core"
	"puppies/internal/dataset"
	"puppies/internal/imgplane"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/roi"
)

// Photo kinds, after the dataset corpora the paper evaluates on: PASCAL
// object scenes (0.17 MP), Caltech face scenes (0.53 MP) and INRIA
// landscapes (2 MP). The annotated face/text/object rectangles are the ROIs.
const (
	kindPascal = iota
	kindCaltech
	kindInria
	numKinds
)

var kindProfiles = [numKinds]dataset.Profile{dataset.PASCAL, dataset.Caltech, dataset.INRIA}

// kindPattern fixes the kind of every rank modulo 20, so the size mix a Zipf
// rank sees is the same for every seed: the seed picks the scenes and their
// variations, never the shape of the workload. The 6:13:1 mix
// (PASCAL:Caltech:INRIA) keeps the median and the 90th percentile away from
// the steps between photo sizes, where a quantile would jump between runs.
var kindPattern = [20]int{
	kindCaltech, kindPascal, kindCaltech, kindCaltech, kindPascal,
	kindCaltech, kindInria, kindCaltech, kindPascal, kindCaltech,
	kindCaltech, kindPascal, kindCaltech, kindCaltech, kindPascal,
	kindCaltech, kindCaltech, kindPascal, kindCaltech, kindCaltech,
}

// cameraQuality is the JPEG quality of the 4:2:0 camera files.
const cameraQuality = 90

// scene is one generated base image with its annotated sensitive regions.
type scene struct {
	kind    int
	rgba    *image.RGBA
	regions []core.ROI
}

// catalogScenes are the kinds of the base scenes a catalog derives its
// photos from, one set-up slice's worth repeated: hundreds of photos cost a
// few renders. Three equal slices render 6 PASCAL, 9 Caltech and 3 INRIA
// scenes.
var catalogScenes = []int{kindPascal, kindCaltech, kindPascal, kindCaltech, kindCaltech, kindInria}

// genScenes renders one base scene per entry of kinds; callers order kinds
// so that each set-up slice renders the same mix.
func genScenes(b *bench, kinds []int) ([]*scene, error) {
	out := make([]*scene, len(kinds))
	err := b.setupPhase("scenes", len(kinds), func(i int) error {
		kind := kinds[i]
		g, err := dataset.NewGenerator(kindProfiles[kind], b.cfg.seed)
		if err != nil {
			return err
		}
		it := g.Item(i)
		rgba, ok := it.Image.Quantize8().ToStdImage().(*image.RGBA)
		if !ok {
			return fmt.Errorf("scene %d is not a color image", i)
		}
		sc := &scene{kind: kind, rgba: rgba}
		for _, a := range it.Annotations {
			sc.regions = append(sc.regions, core.ROI{X: a.X, Y: a.Y, W: a.W, H: a.H})
		}
		out[i] = sc
		return nil
	})
	return out, err
}

// sceneKinds repeats pattern until it has n entries.
func sceneKinds(pattern []int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// photo is one input photo: a base scene, mirrored or not and tinted per
// channel, so photos of one scene still differ in every block.
type photo struct {
	kind    int
	rgba    *image.RGBA
	regions []core.ROI // block-aligned and disjoint, one key each
	keys    []*keys.Pair
}

// derivePhoto makes photo idx of a run from a base scene.
func derivePhoto(sc *scene, idx int, seed int64) *photo {
	h64 := mix64(uint64(seed), uint64(idx)^0x5bd1e995)
	mirror := h64&1 == 1
	var tint [3][256]uint8
	for c := range tint {
		shift := int((h64>>(8+8*c))%25) - 12
		for v := range tint[c] {
			tint[c][v] = clampByte(v + shift)
		}
	}
	src := sc.rgba
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	dst := image.NewRGBA(b)
	for y := 0; y < h; y++ {
		srow := src.Pix[y*src.Stride : y*src.Stride+4*w]
		drow := dst.Pix[y*dst.Stride : y*dst.Stride+4*w]
		for x := 0; x < w; x++ {
			sx := x
			if mirror {
				sx = w - 1 - x
			}
			drow[4*x] = tint[0][srow[4*sx]]
			drow[4*x+1] = tint[1][srow[4*sx+1]]
			drow[4*x+2] = tint[2][srow[4*sx+2]]
			drow[4*x+3] = 255
		}
	}
	p := &photo{kind: sc.kind, rgba: dst}
	var rects []core.ROI
	for _, r := range sc.regions {
		if mirror {
			r.X = w - r.X - r.W
		}
		rects = append(rects, r)
	}
	// Protect aligns regions to blocks and splits overlaps; doing it here
	// gives the exact region list, so each region gets its own fixed key.
	p.regions = roi.AlignAll(rects, w, h)
	for r := range p.regions {
		p.keys = append(p.keys, keys.NewPairDeterministic(int64(mix64(uint64(seed), uint64(idx)<<8|uint64(r))>>1)))
	}
	return p
}

// cameraJPEG encodes the photo as a camera does: stdlib JPEG, 4:2:0.
func (p *photo) cameraJPEG() ([]byte, error) {
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, p.rgba, &jpeg.Options{Quality: cameraQuality}); err != nil {
		return nil, fmt.Errorf("camera encode: %w", err)
	}
	return buf.Bytes(), nil
}

// protection is how one photo is protected.
type protection struct {
	fromCamera bool // ProtectJPEG on the camera file, else Protect on pixels
	variant    core.Variant
	support    bool // TransformSupport
}

// protectionFor alternates pixel and camera sources and mixes VariantZ with
// TransformSupport and VariantC, the two variants that recover exactly from
// every transformed copy.
func protectionFor(i int) protection {
	pr := protection{fromCamera: i%2 == 1, variant: core.VariantZ, support: true}
	if (i/2)%2 == 1 {
		pr.variant, pr.support = core.VariantC, false
	}
	return pr
}

func (p *photo) options(pr protection) puppies.ProtectOptions {
	return puppies.ProtectOptions{Variant: pr.variant, Regions: p.regions, Keys: p.keys, TransformSupport: pr.support}
}

// protected is the output of one protect call.
type protected struct {
	jpeg   []byte
	params []byte
	// ref is the photo's coefficients before perturbation, encoded
	// losslessly: the exact-recovery reference of Lemma III.1.
	ref []byte
	// gx, gy is the protected image's MCU grid in pixels.
	gx, gy int
}

// protectComposite runs the public composite call, as a sender does.
func protectComposite(p *photo, pr protection, camera []byte) (*protected, error) {
	var out *puppies.Protected
	var err error
	if pr.fromCamera {
		out, err = puppies.ProtectJPEG(camera, p.options(pr))
	} else {
		out, err = puppies.Protect(p.rgba, p.options(pr))
	}
	if err != nil {
		return nil, err
	}
	return &protected{jpeg: out.JPEG, params: out.Params}, nil
}

// protectLayered issues the layer calls puppies.Protect and
// puppies.ProtectJPEG are made of, each in its own span. Its bytes must equal
// the composite's (the share oracle and TestProtectLayeredMatchesComposite
// check it); if the composite changes, that check fails rather than timing
// stages that no longer exist. With wantRef it also keeps the unperturbed
// coefficients as a reference.
func protectLayered(sp *opSpans, p *photo, pr protection, camera []byte, wantRef bool) (*protected, error) {
	params, err := core.NewParams(pr.variant, core.LevelMedium)
	if err != nil {
		return nil, err
	}
	params.Wrap = core.WrapRecorded
	params.TransformSupport = pr.support
	scheme, err := core.NewScheme(params)
	if err != nil {
		return nil, err
	}
	var img *jpegc.Image
	regions := p.regions
	if pr.fromCamera {
		err = sp.do("jpegc.decode", func() (err error) {
			img, err = jpegc.Decode(bytes.NewReader(camera))
			return err
		})
		if err != nil {
			return nil, err
		}
		regions = roi.AlignAll(regions, img.W, img.H)
		if img.Subsampled() {
			if mcu, ok := alignRegionsToMCU(img, regions); ok {
				regions = mcu
			} else if err = sp.do("jpegc.normalize", func() (err error) {
				img, err = img.Normalize444()
				return err
			}); err != nil {
				return nil, err
			}
		}
	} else {
		var planar *imgplane.Image
		if err = sp.do("imgplane.from_std", func() (err error) {
			planar, err = imgplane.FromStdImage(p.rgba)
			return err
		}); err != nil {
			return nil, err
		}
		if err = sp.do("jpegc.from_planar", func() (err error) {
			img, err = jpegc.FromPlanar(planar, jpegc.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		regions = roi.AlignAll(regions, img.W, img.H)
	}
	if len(regions) != len(p.keys) {
		return nil, fmt.Errorf("protect: %d regions for %d keys", len(regions), len(p.keys))
	}
	maxH, maxV := img.MaxSampling()
	out := &protected{gx: 8 * maxH, gy: 8 * maxV}
	if wantRef {
		var ref bytes.Buffer
		if err := img.Encode(&ref, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized}); err != nil {
			return nil, err
		}
		out.ref = ref.Bytes()
	}
	assign := make([]core.RegionAssignment, len(regions))
	for i, r := range regions {
		assign[i] = core.RegionAssignment{ROI: r, Pair: p.keys[i]}
	}
	var pd *core.PublicData
	if err = sp.do("core.encrypt", func() (err error) {
		pd, _, err = scheme.EncryptImage(img, assign)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err = sp.do("jpegc.encode", func() error { return img.Encode(&buf, scheme.EncodeOptions()) }); err != nil {
		return nil, err
	}
	out.jpeg = buf.Bytes()
	if err = sp.do("core.params", func() (err error) {
		out.params, err = pd.Encode()
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// alignRegionsToMCU is the native-subsampling region step of
// puppies.ProtectJPEG: expand to the MCU grid unless two regions collide.
func alignRegionsToMCU(img *jpegc.Image, regions []core.ROI) ([]core.ROI, bool) {
	maxH, maxV := img.MaxSampling()
	out := make([]core.ROI, len(regions))
	for i, r := range regions {
		a, err := r.AlignToMCU(img.W, img.H, maxH, maxV)
		if err != nil {
			return nil, false
		}
		for j := 0; j < i; j++ {
			if a.Overlaps(out[j]) {
				return nil, false
			}
		}
		out[i] = a
	}
	return out, true
}

// forEach runs f(0..n-1) on two workers, the core count the benchmark is
// sized for; it returns when every call has.
func forEach(n int, f func(i int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

func clampByte(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// mix64 hashes two words into one (splitmix64 finalizer).
func mix64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x632BE59BD9B4E019
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
