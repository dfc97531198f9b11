package jpegc

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// mustRoundTrip encodes img, decodes the stream, and requires every
// component's quantization table, sampling and coefficients back exactly.
func mustRoundTrip(t *testing.T, img *Image, opts EncodeOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := img.Encode(&buf, opts); err != nil {
		t.Fatalf("Encode(%+v): %v", opts, err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	requireSameImage(t, got, img)
	return buf.Bytes()
}

func requireSameImage(t *testing.T, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H || len(got.Comps) != len(want.Comps) {
		t.Fatalf("decoded %dx%d with %d comps, want %dx%d with %d", got.W, got.H, len(got.Comps), want.W, want.H, len(want.Comps))
	}
	for ci := range want.Comps {
		g, w := &got.Comps[ci], &want.Comps[ci]
		if g.Quant != w.Quant {
			t.Fatalf("component %d: quant table differs after round trip", ci)
		}
		gh, gv := g.Sampling()
		wh, wv := w.Sampling()
		if gh != wh || gv != wv || g.BlocksW != w.BlocksW || g.BlocksH != w.BlocksH {
			t.Fatalf("component %d: geometry %dx%d@%dx%d, want %dx%d@%dx%d", ci, g.BlocksW, g.BlocksH, gh, gv, w.BlocksW, w.BlocksH, wh, wv)
		}
		for bi := range w.Blocks {
			if g.Blocks[bi] != w.Blocks[bi] {
				t.Fatalf("component %d block %d differs:\n%vwant\n%v", ci, bi, g.Blocks[bi].String(), w.Blocks[bi].String())
			}
		}
	}
}

// TestEncodeThirdQuantTable: a Cr table that differs from Cb's must get a
// DQT of its own, so the decoder dequantizes Cr with Cr's steps.
func TestEncodeThirdQuantTable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	img := randomCoeffImage(rng, 40, 24, 3)
	cr, err := dct.StdChrominanceQuant.ScaleQuality(90)
	if err != nil {
		t.Fatal(err)
	}
	img.Comps[2].Quant = cr
	for _, tables := range []TableMode{TablesDefault, TablesOptimized} {
		mustRoundTrip(t, img, EncodeOptions{Tables: tables})
	}

	// Equal chroma tables keep the two-table layout: Cr shares table 1.
	img.Comps[2].Quant = img.Comps[1].Quant
	data := mustRoundTrip(t, img, EncodeOptions{})
	dqt := bytes.Index(data, []byte{0xff, markerDQT})
	if n := int(data[dqt+2])<<8 | int(data[dqt+3]); n != 2+2*65 {
		t.Fatalf("DQT segment length %d with shared chroma table, want %d", n, 2+2*65)
	}
}

// TestEncodeThirdQuantTableThroughDecode: a stream whose Cr table differs
// from Cb's (as third-party encoders may write) re-encodes to the same
// coefficients and tables.
func TestEncodeThirdQuantTableThroughDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := randomCoeffImage(rng, 48, 32, 3)
	src.Comps[2].Quant[0] = 3
	var buf bytes.Buffer
	if err := src.Encode(&buf, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameImage(t, dec, src)
	mustRoundTrip(t, dec, EncodeOptions{Tables: TablesOptimized})
}

// TestEncodeOptimizedRestartRoundTrip: with restart markers the DC
// predictor resets at every interval, and the optimized tables must be
// built from that same symbol stream. A DC ramp makes every in-interval
// difference small while a reset codes the full DC value, so a statistics
// pass that ignores the resets lacks codes the scan needs.
func TestEncodeOptimizedRestartRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		w, h, ch int
		sub      bool
	}{{64, 48, 3, false}, {72, 40, 1, false}, {67, 45, 3, true}} {
		var img *Image
		if tc.sub {
			var err error
			if img, err = Decode(bytes.NewReader(stdlibYCbCr(t, tc.w, tc.h, image.YCbCrSubsampleRatio420))); err != nil {
				t.Fatal(err)
			}
		} else {
			img = randomCoeffImage(rng, tc.w, tc.h, tc.ch)
		}
		for ci := range img.Comps {
			for bi := range img.Comps[ci].Blocks {
				img.Comps[ci].Blocks[bi][0] = int32(min(8*bi, dct.CoeffMax))
			}
		}
		for _, ri := range []int{1, 2, 3, 4, 7} {
			mustRoundTrip(t, img, EncodeOptions{Tables: TablesOptimized, RestartInterval: ri})
		}
	}
}

// TestEncodeRangeErrorOrder: the single scan reports the first bad
// coefficient in component, block, row-major order, with the same
// messages the encoder always gave.
func TestEncodeRangeErrorOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	img := randomCoeffImage(rng, 512, 128, 3)
	img.Comps[2].Blocks[5][0] = 1024
	img.Comps[1].Blocks[300][9] = -1024
	img.Comps[1].Blocks[300][3] = 5000
	img.Comps[1].Blocks[301][0] = -2000
	err := img.Encode(&bytes.Buffer{}, EncodeOptions{})
	want := "jpegc: component 1 block 300 AC[3] 5000 out of range [-1023,1023]"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	img.Comps[1].Blocks[300][3], img.Comps[1].Blocks[300][9], img.Comps[1].Blocks[301][0] = 0, 0, 0
	err = img.Encode(&bytes.Buffer{}, EncodeOptions{})
	want = "jpegc: component 2 block 5 DC 1024 out of range [-1024,1023]"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	// DC -1024 is legal (only AC excludes it).
	img.Comps[2].Blocks[5][0] = -1024
	mustRoundTrip(t, img, EncodeOptions{})
}

// TestEncodeConcurrent: servers encode cached images from many requests
// at once, so concurrent Encode calls on one shared image must each
// produce the serial bytes, at every worker count. Run under -race by
// `make race`.
func TestEncodeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	shared := randomCoeffImage(rng, 136, 72, 3)
	sub, err := Decode(bytes.NewReader(stdlibYCbCr(t, 67, 45, image.YCbCrSubsampleRatio420)))
	if err != nil {
		t.Fatal(err)
	}
	optsList := []EncodeOptions{{}, {Tables: TablesOptimized}, {RestartInterval: 3}, {Tables: TablesOptimized, RestartInterval: 2}}
	for _, img := range []*Image{shared, sub} {
		want := make([][]byte, len(optsList))
		for i, opts := range optsList {
			var buf bytes.Buffer
			if err := img.Encode(&buf, opts); err != nil {
				t.Fatal(err)
			}
			want[i] = buf.Bytes()
		}
		for _, workers := range []int{1, 2, 8} {
			prev := parallel.SetWorkers(workers)
			var wg sync.WaitGroup
			errs := make(chan string, 16*len(optsList))
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					i := g % len(optsList)
					var buf bytes.Buffer
					if err := img.Encode(&buf, optsList[i]); err != nil {
						errs <- err.Error()
						return
					}
					if !bytes.Equal(buf.Bytes(), want[i]) {
						errs <- "bytes differ from the serial encode"
					}
				}(g)
			}
			wg.Wait()
			parallel.SetWorkers(prev)
			close(errs)
			for e := range errs {
				t.Errorf("workers=%d: %s", workers, e)
			}
		}
	}
}

// TestFromStdImageMatchesPlanar: the streaming std-image path equals the
// plane path bit for bit for every row reader (typed RGBA, NRGBA and Gray
// readers, offset sub-image bounds, and the generic At fallback), at
// sizes with partial edge blocks.
func TestFromStdImageMatchesPlanar(t *testing.T) {
	const w, h = 45, 29
	rgba := image.NewRGBA(image.Rect(0, 0, w+7, h+5))
	nrgba := image.NewNRGBA(image.Rect(0, 0, w, h))
	gray := image.NewGray(image.Rect(0, 0, w, h))
	for y := 0; y < h+5; y++ {
		for x := 0; x < w+7; x++ {
			c := color.NRGBA{
				R: uint8(128 + 100*math.Sin(float64(x)/5)),
				G: uint8(128 + 90*math.Cos(float64(x+y)/7)),
				B: uint8(x * y),
				A: uint8(255 - 3*x),
			}
			rgba.Set(x, y, color.RGBA{c.R, c.G, c.B, 255})
			nrgba.Set(x, y, c)
			gray.Set(x, y, color.Gray{Y: c.G})
		}
	}
	sources := map[string]image.Image{
		"rgba":    rgba.SubImage(image.Rect(7, 5, w+7, h+5)),
		"nrgba":   nrgba,
		"gray":    gray,
		"generic": image.NewUniform(color.RGBA{200, 30, 90, 255}),
	}
	sources["generic"] = &boundedImage{Image: sources["generic"], r: image.Rect(0, 0, w, h)}
	for name, src := range sources {
		for _, quality := range []int{0, 35, 95} {
			planar, err := imgplane.FromStdImage(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FromPlanar(planar, Options{Quality: quality})
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromStdImage(src, Options{Quality: quality})
			if err != nil {
				t.Fatal(err)
			}
			for ci := range want.Comps {
				for bi := range want.Comps[ci].Blocks {
					if got.Comps[ci].Blocks[bi] != want.Comps[ci].Blocks[bi] {
						t.Fatalf("%s q=%d: component %d block %d differs from the plane path", name, quality, ci, bi)
					}
				}
			}
			got.Recycle()
		}
	}
	if _, err := FromStdImage(image.NewRGBA(image.Rectangle{}), Options{}); err == nil {
		t.Error("FromStdImage accepted an empty image")
	}
	if _, err := FromStdImage(rgba, Options{Quality: 101}); err == nil || !strings.Contains(err.Error(), "quality") {
		t.Errorf("FromStdImage quality 101: %v", err)
	}
}

// boundedImage gives an unbounded image finite bounds, which routes it
// through the generic At-based row reader.
type boundedImage struct {
	image.Image
	r image.Rectangle
}

func (b *boundedImage) Bounds() image.Rectangle { return b.r }
