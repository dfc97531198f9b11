package dct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSpatial(rng *rand.Rand) FloatBlock {
	var b FloatBlock
	for i := range b {
		b[i] = float64(rng.Intn(256) - 128)
	}
	return b
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		in := randomSpatial(rng)
		coeff := Forward(&in)
		out := Inverse(&coeff)
		for i := range in {
			if math.Abs(in[i]-out[i]) > 1e-9 {
				t.Fatalf("trial %d: sample %d: got %v want %v", trial, i, out[i], in[i])
			}
		}
	}
}

func TestForwardDCIsScaledMean(t *testing.T) {
	var in FloatBlock
	for i := range in {
		in[i] = 100
	}
	coeff := Forward(&in)
	// DC of a constant block v is 8*v; all AC must be zero.
	if math.Abs(coeff[0]-800) > 1e-9 {
		t.Errorf("DC = %v, want 800", coeff[0])
	}
	for i := 1; i < BlockLen; i++ {
		if math.Abs(coeff[i]) > 1e-9 {
			t.Errorf("AC[%d] = %v, want 0", i, coeff[i])
		}
	}
}

func TestForwardLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSpatial(rng)
	b := randomSpatial(rng)
	var sum FloatBlock
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	ca, cb, cs := Forward(&a), Forward(&b), Forward(&sum)
	for i := range cs {
		if math.Abs(cs[i]-(ca[i]+cb[i])) > 1e-9 {
			t.Fatalf("linearity violated at %d: %v vs %v", i, cs[i], ca[i]+cb[i])
		}
	}
}

func TestParseval(t *testing.T) {
	// The 2-D DCT-II with our normalization is orthonormal: energy in the
	// spatial domain equals energy in the coefficient domain.
	rng := rand.New(rand.NewSource(3))
	in := randomSpatial(rng)
	coeff := Forward(&in)
	var es, ec float64
	for i := range in {
		es += in[i] * in[i]
		ec += coeff[i] * coeff[i]
	}
	if math.Abs(es-ec) > 1e-6*es {
		t.Fatalf("energy mismatch: spatial %v coeff %v", es, ec)
	}
}

func TestZigZagRoundTrip(t *testing.T) {
	f := func(b Block) bool {
		zz := b.ToZigZag()
		back := FromZigZag(&zz)
		return back == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigZagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range ZigZag {
		if v < 0 || v >= BlockLen || seen[v] {
			t.Fatalf("zigzag entry %d invalid or duplicated", v)
		}
		seen[v] = true
	}
	// Spot-check standard positions.
	if ZigZag[0] != 0 || ZigZag[1] != 1 || ZigZag[2] != 8 || ZigZag[63] != 63 {
		t.Fatalf("zigzag table does not match the JPEG standard")
	}
}

func TestQuantizeDequantizeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := StdLuminanceQuant
	for trial := 0; trial < 20; trial++ {
		in := randomSpatial(rng)
		raw := Forward(&in)
		b := Quantize(&raw, &q)
		deq := Dequantize(&b, &q)
		for i := range raw {
			if math.Abs(raw[i]-deq[i]) > float64(q[i])/2+1e-9 {
				t.Fatalf("quantization error at %d exceeds half step: raw=%v deq=%v step=%d",
					i, raw[i], deq[i], q[i])
			}
		}
	}
}

func TestScaleQuality(t *testing.T) {
	tests := []struct {
		quality int
		wantErr bool
	}{
		{1, false}, {25, false}, {50, false}, {75, false}, {100, false},
		{0, true}, {101, true}, {-5, true},
	}
	for _, tt := range tests {
		got, err := StdLuminanceQuant.ScaleQuality(tt.quality)
		if (err != nil) != tt.wantErr {
			t.Errorf("quality %d: err = %v, wantErr %v", tt.quality, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if err := got.Validate(); err != nil {
			t.Errorf("quality %d: invalid table: %v", tt.quality, err)
		}
	}
	// Quality 50 must be the identity scaling.
	q50, _ := StdLuminanceQuant.ScaleQuality(50)
	if q50 != StdLuminanceQuant {
		t.Error("quality 50 should return the Annex K table unchanged")
	}
	// Higher quality means finer steps.
	q90, _ := StdLuminanceQuant.ScaleQuality(90)
	q10, _ := StdLuminanceQuant.ScaleQuality(10)
	for i := range q90 {
		if q90[i] > StdLuminanceQuant[i] {
			t.Fatalf("quality 90 step %d coarser than quality 50", i)
		}
		if q10[i] < StdLuminanceQuant[i] {
			t.Fatalf("quality 10 step %d finer than quality 50", i)
		}
	}
}

func TestRequantizeMatchesDecodeReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	from := StdLuminanceQuant
	to, _ := StdLuminanceQuant.ScaleQuality(30)
	for trial := 0; trial < 20; trial++ {
		in := randomSpatial(rng)
		b := forwardQuantized(&in, &from)
		got := Requantize(&b, &from, &to)
		// Reference: dequantize then quantize.
		raw := Dequantize(&b, &from)
		want := Quantize(&raw, &to)
		if got != want {
			t.Fatalf("trial %d: requantize mismatch", trial)
		}
	}
}

// spatialFromBlock applies inverse quantized DCT and returns spatial floats.
func spatialOf(b *Block, q *QuantTable) FloatBlock {
	return InverseQuantized(b, q)
}

func TestCoefficientDomainFlipsMatchSpatial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := StdLuminanceQuant
	for trial := 0; trial < 10; trial++ {
		in := randomSpatial(rng)
		b := forwardQuantized(&in, &q)
		sp := spatialOf(&b, &q)

		qT := q.Transpose()
		checks := []struct {
			name  string
			coeff Block
			quant *QuantTable
			index func(r, c int) int
		}{
			{"FlipH", b.FlipH(), &q, func(r, c int) int { return r*BlockSize + (BlockSize - 1 - c) }},
			{"FlipV", b.FlipV(), &q, func(r, c int) int { return (BlockSize-1-r)*BlockSize + c }},
			{"Rotate180", b.Rotate180(), &q, func(r, c int) int {
				return (BlockSize-1-r)*BlockSize + (BlockSize - 1 - c)
			}},
			{"Transpose", b.Transpose(), &qT, func(r, c int) int { return c*BlockSize + r }},
			{"Rotate90CW", b.Rotate90CW(), &qT, func(r, c int) int {
				// Output (r, c) comes from input (7-c, r) for clockwise rotation.
				return (BlockSize-1-c)*BlockSize + r
			}},
			{"Rotate90CCW", b.Rotate90CCW(), &qT, func(r, c int) int {
				return c*BlockSize + (BlockSize - 1 - r)
			}},
		}
		for _, chk := range checks {
			got := spatialOf(&chk.coeff, chk.quant)
			for r := 0; r < BlockSize; r++ {
				for c := 0; c < BlockSize; c++ {
					want := sp[chk.index(r, c)]
					if math.Abs(got[r*BlockSize+c]-want) > 1e-6 {
						t.Fatalf("%s: (%d,%d) = %v, want %v", chk.name, r, c, got[r*BlockSize+c], want)
					}
				}
			}
		}
	}
}

func TestClamp(t *testing.T) {
	b := Block{0: 5000, 1: -5000, 2: 17}
	n := b.Clamp()
	if n != 2 {
		t.Errorf("Clamp reported %d, want 2", n)
	}
	if b[0] != CoeffMax || b[1] != CoeffMin || b[2] != 17 {
		t.Errorf("Clamp produced %d,%d,%d", b[0], b[1], b[2])
	}
}

func BenchmarkForward(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := randomSpatial(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Forward(&in)
	}
}

func BenchmarkInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := randomSpatial(rng)
	coeff := Forward(&in)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Inverse(&coeff)
	}
}
