package jpegc

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"puppies/internal/dct"
)

// consumedBits returns the logical bit position of a reader within its
// segment, independent of how far fill() has run ahead: bits loaded from the
// first pos bytes (stuffing bytes carry no payload) minus bits still queued
// in the accumulator.
func consumedBits(br *bitReader) int {
	loaded := 0
	for i := 0; i < br.pos; i++ {
		if i > 0 && br.data[i] == 0x00 && br.data[i-1] == 0xff {
			continue
		}
		loaded += 8
	}
	return loaded - int(br.nAcc)
}

// randomSpec builds a valid Huffman spec from random symbol frequencies.
func randomSpec(t *testing.T, rng *rand.Rand) HuffmanSpec {
	t.Helper()
	var freq [256]int64
	nSyms := 2 + rng.Intn(255)
	for i := 0; i < nSyms; i++ {
		// Exponentially skewed frequencies produce a wide spread of code
		// lengths, including the 16-bit tail after the spec adjustment.
		freq[rng.Intn(256)] = 1 + int64(rng.Intn(1<<uint(rng.Intn(20))))
	}
	spec, err := BuildOptimalSpec(&freq)
	if err != nil {
		t.Fatalf("BuildOptimalSpec: %v", err)
	}
	return spec
}

// TestLUTDecodeMatchesReference is the property test behind the fast path:
// on random tables and random bit streams, decode and decodeReference return
// the same symbols, consume the same bits, and fail at the same point.
func TestLUTDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := []HuffmanSpec{StdDCLuminance, StdACLuminance, StdDCChrominance, StdACChrominance}
	for i := 0; i < 20; i++ {
		specs = append(specs, randomSpec(t, rng))
	}
	for si, spec := range specs {
		tbl, err := newDecTable(&spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		for trial := 0; trial < 50; trial++ {
			data := make([]byte, 1+rng.Intn(200))
			rng.Read(data)
			fast := newBitReader(data)
			ref := newBitReader(data)
			for step := 0; ; step++ {
				symF, errF := tbl.decode(&fast)
				symR, errR := tbl.decodeReference(&ref)
				if (errF == nil) != (errR == nil) {
					t.Fatalf("spec %d trial %d step %d: fast err %v, reference err %v",
						si, trial, step, errF, errR)
				}
				if errF != nil {
					break
				}
				if symF != symR {
					t.Fatalf("spec %d trial %d step %d: fast decoded %#x, reference %#x",
						si, trial, step, symF, symR)
				}
				if cf, cr := consumedBits(&fast), consumedBits(&ref); cf != cr {
					t.Fatalf("spec %d trial %d step %d: fast at bit %d, reference at bit %d",
						si, trial, step, cf, cr)
				}
			}
		}
	}
}

// TestMaxLengthCodesRoundTrip exercises a table whose tail symbols use full
// 16-bit codes (far past the 8-bit LUT) through encode and both decoders.
func TestMaxLengthCodesRoundTrip(t *testing.T) {
	// One code per length 1..15 and two of length 16: a maximally skewed
	// but valid canonical code.
	var spec HuffmanSpec
	for i := 0; i < maxCodeLength; i++ {
		spec.Counts[i] = 1
	}
	spec.Counts[maxCodeLength-1] = 2
	for i := 0; i < 17; i++ {
		spec.Values = append(spec.Values, byte(i))
	}
	var enc encTable
	if err := enc.init(&spec); err != nil {
		t.Fatal(err)
	}
	dec, err := newDecTable(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if enc.size[16] != 16 || enc.size[15] != 16 {
		t.Fatalf("tail symbols have %d- and %d-bit codes, want 16", enc.size[15], enc.size[16])
	}

	var stream bytes.Buffer
	bw := newBitWriter(&stream)
	defer bw.release()
	syms := make([]byte, 300)
	rng := rand.New(rand.NewSource(5))
	for i := range syms {
		syms[i] = byte(rng.Intn(17))
	}
	for _, s := range syms {
		bw.WriteBits(enc.code[s], uint(enc.size[s]))
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, useRef := range []bool{false, true} {
		br := newBitReader(stream.Bytes())
		for i, want := range syms {
			var got byte
			var err error
			if useRef {
				got, err = dec.decodeReference(&br)
			} else {
				got, err = dec.decode(&br)
			}
			if err != nil {
				t.Fatalf("ref=%v symbol %d: %v", useRef, i, err)
			}
			if got != want {
				t.Fatalf("ref=%v symbol %d: decoded %#x, want %#x", useRef, i, got, want)
			}
		}
	}
}

// TestAllOnesCodeNeverDecodes feeds 16 one-bits — the code point the JPEG
// standard reserves — to tables that leave it unassigned. Both decode paths
// must reject it rather than return a bogus symbol.
func TestAllOnesCodeNeverDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specs := []HuffmanSpec{StdDCLuminance, StdACLuminance, StdDCChrominance, StdACChrominance}
	for i := 0; i < 10; i++ {
		specs = append(specs, randomSpec(t, rng))
	}
	// 16 one-bits; the 0xFF bytes are stuffed as they would be in a stream.
	allOnes := []byte{0xff, 0x00, 0xff, 0x00}
	for si, spec := range specs {
		tbl, err := newDecTable(&spec)
		if err != nil {
			t.Fatalf("spec %d: %v", si, err)
		}
		// Reject specs that assign the all-ones 16-bit code (a random spec
		// from BuildOptimalSpec never does: symbol 256 is reserved for it).
		if tbl.maxcode[maxCodeLength] == 1<<maxCodeLength-1 {
			t.Fatalf("spec %d assigns the reserved all-ones code", si)
		}
		br := newBitReader(allOnes)
		if _, err := tbl.decode(&br); err == nil || !strings.Contains(err.Error(), "invalid huffman code") {
			t.Errorf("spec %d: fast path accepted all-ones code (err %v)", si, err)
		}
		br = newBitReader(allOnes)
		if _, err := tbl.decodeReference(&br); err == nil || !strings.Contains(err.Error(), "invalid huffman code") {
			t.Errorf("spec %d: reference path accepted all-ones code (err %v)", si, err)
		}
	}
}

// TestBlockBoundaryCoding round-trips blocks that stress EOB and ZRL at the
// edges of the 64-coefficient block: DC-only (immediate EOB), a lone value
// in the last zig-zag slot (three ZRLs then run 14), values exactly at ZRL
// multiples, and a fully dense block (no EOB at all).
func TestBlockBoundaryCoding(t *testing.T) {
	patterns := []func(b *dct.Block){
		func(b *dct.Block) {}, // DC only: EOB right after the DC coefficient
		func(b *dct.Block) { b[dct.ZigZag[63]] = 5 },
		func(b *dct.Block) { b[dct.ZigZag[16]] = -3; b[dct.ZigZag[32]] = 7; b[dct.ZigZag[48]] = -1 },
		func(b *dct.Block) { b[dct.ZigZag[1]] = 2; b[dct.ZigZag[63]] = -9 },
		func(b *dct.Block) {
			for zz := 1; zz < dct.BlockLen; zz++ {
				b[dct.ZigZag[zz]] = int32(zz%19 - 9)
			}
		},
	}
	for _, mode := range []TableMode{TablesDefault, TablesOptimized} {
		for pi, fill := range patterns {
			img := &Image{W: 8, H: 8, Comps: []Component{{
				BlocksW: 1, BlocksH: 1, Blocks: make([]dct.Block, 1),
				Quant: dct.StdLuminanceQuant,
			}}}
			img.Comps[0].Blocks[0][0] = 100
			fill(&img.Comps[0].Blocks[0])
			var buf bytes.Buffer
			if err := img.Encode(&buf, EncodeOptions{Tables: mode}); err != nil {
				t.Fatalf("mode %d pattern %d: %v", mode, pi, err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("mode %d pattern %d: %v", mode, pi, err)
			}
			assertCoeffEqual(t, img, got)
		}
	}
}

// TestTruncatedStreamsMidRefill cuts a valid stream at every offset inside
// the entropy-coded data, so the word-based refill hits end-of-segment at
// every possible alignment. Decoding must fail cleanly (or, at worst for a
// cut near the end, succeed with a structurally valid image) — never panic.
func TestTruncatedStreamsMidRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	img := randomCoeffImage(rng, 32, 24, 3)
	var buf bytes.Buffer
	if err := img.Encode(&buf, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sos := bytes.Index(data, []byte{0xff, 0xda})
	if sos < 0 {
		t.Fatal("no SOS marker in encoded stream")
	}
	for cut := sos + 2; cut < len(data); cut++ {
		out, err := Decode(bytes.NewReader(data[:cut]))
		if err == nil {
			if vErr := out.Validate(); vErr != nil {
				t.Fatalf("cut %d: accepted stream decoded to invalid image: %v", cut, vErr)
			}
			continue
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			continue // precise truncation report from the bit reader
		}
	}
}
