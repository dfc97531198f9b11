package jpegc

import (
	"bytes"
	"image"
	"math/rand"
	"testing"

	"puppies/internal/dct"
)

// FuzzDecode is a native fuzz target for the bit-stream parser. The seed
// corpus covers a valid color stream, a valid grayscale stream, and the
// hostile headers from the unit tests. Run with:
//
//	go test -fuzz FuzzDecode ./internal/jpegc
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []struct {
		w, h, ch int
	}{{32, 24, 3}, {16, 16, 1}} {
		img := randomCoeffImage(rng, seed.w, seed.h, seed.ch)
		var buf bytes.Buffer
		if err := img.Encode(&buf, EncodeOptions{}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xd8, 0xff, 0xd9})
	f.Add([]byte{0xff, 0xd8, 0xff, 0xc0, 0x00, 0x0b, 8, 0xff, 0xff, 0xff, 0xff, 1, 1, 0x11, 0, 0xff, 0xd9})
	// Seeds for the restart-segment scanner and the 16-bit-code tail of the
	// LUT decoder: a stream with RSTn markers every other MCU and one with
	// per-image optimized tables (their tails reach full 16-bit codes).
	restartImg := randomCoeffImage(rng, 24, 16, 3)
	var rbuf bytes.Buffer
	if err := restartImg.Encode(&rbuf, EncodeOptions{RestartInterval: 2}); err != nil {
		f.Fatal(err)
	}
	f.Add(rbuf.Bytes())
	var obuf bytes.Buffer
	if err := restartImg.Encode(&obuf, EncodeOptions{Tables: TablesOptimized}); err != nil {
		f.Fatal(err)
	}
	f.Add(obuf.Bytes())
	// Native-subsampled seeds: 4:2:0 and 4:2:2 streams from the stdlib
	// encoder reach the MCU-interleaved scan parser and the per-component
	// geometry paths (odd dims exercise partial edge MCUs). Also re-encode
	// the 4:2:0 stream with our own encoder so the fuzzer starts from our
	// interleaved writer's output too.
	f.Add(stdlibYCbCr(f, 67, 45, image.YCbCrSubsampleRatio420))
	f.Add(stdlibYCbCr(f, 48, 33, image.YCbCrSubsampleRatio422))
	sub, err := Decode(bytes.NewReader(stdlibYCbCr(f, 64, 48, image.YCbCrSubsampleRatio420)))
	if err != nil {
		f.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sub.Encode(&sbuf, EncodeOptions{RestartInterval: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(sbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if vErr := out.Validate(); vErr != nil {
			t.Fatalf("Decode returned invalid image: %v", vErr)
		}
		// Anything we accept we must be able to re-encode.
		var buf bytes.Buffer
		if encErr := out.Encode(&buf, EncodeOptions{}); encErr != nil {
			t.Fatalf("accepted image failed to re-encode: %v", encErr)
		}
	})
}

// FuzzEncodeRoundTrip drives the encoder with arbitrary geometry (1..97 x
// 1..71 pixels; grayscale, 4:4:4, 4:2:0 or 4:2:2), both table modes, any
// restart interval, and sparse coefficients written from the input: each
// 5-byte record (block index, zigzag position, 16-bit value) sets one
// coefficient, so runs longer than 16 (ZRL), a nonzero zigzag 63 (no
// EOB), AC -1023 and out-of-range values all occur. Encode must either
// reject an out-of-range coefficient or produce a stream that decodes to
// exactly the input; it must never panic. Run with:
//
//	go test -fuzz FuzzEncodeRoundTrip ./internal/jpegc
func FuzzEncodeRoundTrip(f *testing.F) {
	rec := func(block uint16, zz byte, v int16) []byte {
		return []byte{byte(block >> 8), byte(block), zz, byte(uint16(v) >> 8), byte(v)}
	}
	join := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	f.Add(uint16(16), uint16(16), uint8(1), uint8(0), uint8(0), join(rec(0, 1, 5), rec(0, 40, -7), rec(1, 63, 1)))
	f.Add(uint16(67), uint16(45), uint8(2), uint8(1), uint8(3), join(rec(2, 0, -1024), rec(3, 63, -1023), rec(4, 17, 1023)))
	f.Add(uint16(48), uint16(33), uint8(3), uint8(1), uint8(1), join(rec(0, 62, 3), rec(0, 63, -2), rec(9, 1, 800)))
	f.Add(uint16(9), uint16(70), uint8(0), uint8(0), uint8(2), join(rec(0, 5, -1024)))
	f.Add(uint16(30), uint16(20), uint8(1), uint8(1), uint8(0), join(rec(1, 0, 1024)))

	layouts := [4][3][2]int{
		{{1, 1}},                 // grayscale
		{{1, 1}, {1, 1}, {1, 1}}, // 4:4:4
		{{2, 2}, {1, 1}, {1, 1}}, // 4:2:0
		{{2, 1}, {1, 1}, {1, 1}}, // 4:2:2
	}
	f.Fuzz(func(t *testing.T, w, h uint16, layout, tables, restart uint8, data []byte) {
		img := &Image{W: 1 + int(w)%97, H: 1 + int(h)%71}
		l := layouts[layout%4]
		n := 3
		if layout%4 == 0 {
			n = 1
		}
		img.Comps = make([]Component, n)
		for ci := range img.Comps {
			img.Comps[ci].HSamp, img.Comps[ci].VSamp = l[ci][0], l[ci][1]
			img.Comps[ci].Quant = dct.StdChrominanceQuant
		}
		img.Comps[0].Quant = dct.StdLuminanceQuant
		if n == 3 && tables&2 != 0 {
			img.Comps[2].Quant[0] = 7 // a third, distinct table
		}
		total := 0
		for ci := range img.Comps {
			pw, ph := img.CompDims(ci)
			c := &img.Comps[ci]
			c.BlocksW, c.BlocksH = blocksFor(pw), blocksFor(ph)
			c.Blocks = make([]dct.Block, c.BlocksW*c.BlocksH)
			total += len(c.Blocks)
		}
		inRange := true
		for ; len(data) >= 5; data = data[5:] {
			k := (int(data[0])<<8 | int(data[1])) % total
			v := int32(int16(uint16(data[3])<<8 | uint16(data[4])))
			ci := 0
			for k >= len(img.Comps[ci].Blocks) {
				k -= len(img.Comps[ci].Blocks)
				ci++
			}
			zz := int(data[2]) % dct.BlockLen
			img.Comps[ci].Blocks[k][dct.ZigZag[zz]] = v
		}
		for ci := range img.Comps {
			for bi := range img.Comps[ci].Blocks {
				inRange = inRange && rangeError(ci, bi, &img.Comps[ci].Blocks[bi]) == nil
			}
		}
		opts := EncodeOptions{Tables: TablesDefault, RestartInterval: int(restart)}
		if tables&1 != 0 {
			opts.Tables = TablesOptimized
		}
		var buf bytes.Buffer
		err := img.Encode(&buf, opts)
		if !inRange {
			if err == nil {
				t.Fatal("Encode accepted an out-of-range coefficient")
			}
			return
		}
		if err != nil {
			t.Fatalf("Encode(%+v) of an in-range image: %v", opts, err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Decode of our own stream: %v", err)
		}
		requireSameImage(t, got, img)
	})
}
