package dct

import "math"

// Fast scaled DCT/IDCT after Arai, Agui and Nakajima (AAN), the kernel
// behind libjpeg's float path. The 1-D butterfly computes the 8-point
// DCT-II up to a known per-frequency scale factor using 5 multiplications
// and 29 additions (vs 64 multiplications for the naive dot products), and
// the scale factors fold into quantization, so the quantizing entry points
// pay almost nothing to undo them.
//
// Scaling convention: with aan[0] = 1 and aan[k] = cos(k*pi/16)*sqrt(2),
// the 2-D butterfly output is S(r,c) * 8 * aan[r] * aan[c], where S is the
// orthonormal coefficient the reference implementation produces. The
// inverse butterfly expects S(r,c) * aan[r] * aan[c] / 8 and emits spatial
// samples directly.
//
// The naive reference transforms (reference_test.go) remain the
// equivalence oracle; TestFastForwardMatchesReference and friends pin the
// fast kernel to them, and ForwardQuantizer falls back to the reference
// basis for the rare coefficients that land within epsilon of a rounding
// boundary, making the quantized fast path bit-identical to the reference
// path by construction.

// AAN butterfly constants (cosines at multiples of pi/16).
const (
	aanC4     = 0.70710678118654752440 // cos(4*pi/16) = 1/sqrt(2)
	aanC2mC6  = 0.54119610014619698439 // cos(2*pi/16) - cos(6*pi/16)
	aanC2pC6  = 1.30656296487637652785 // cos(2*pi/16) + cos(6*pi/16)
	aanC6     = 0.38268343236508977173 // cos(6*pi/16)
	aanSqrt2  = 1.41421356237309504880 // sqrt(2)
	aan2C2    = 1.84775906502257351226 // 2*cos(2*pi/16)
	aanC2mC6i = 1.08239220029239396880 // cos(6*pi/16)*2 / ... (2*(c2-c6)) wait: see below
	aanC2pC6i = 2.61312592975275305571 // 2*(cos(2*pi/16)+cos(6*pi/16))
)

// forwardScale[i] converts butterfly output at row-major index i to the
// orthonormal coefficient: S = out * forwardScale. inverseScale[i] converts
// an orthonormal coefficient to the inverse butterfly's expected input.
var forwardScale, inverseScale [BlockLen]float64

func init() {
	var aan [BlockSize]float64
	aan[0] = 1
	for k := 1; k < BlockSize; k++ {
		aan[k] = math.Cos(float64(k)*math.Pi/16) * math.Sqrt2
	}
	for r := 0; r < BlockSize; r++ {
		for c := 0; c < BlockSize; c++ {
			forwardScale[r*BlockSize+c] = 1 / (8 * aan[r] * aan[c])
			inverseScale[r*BlockSize+c] = aan[r] * aan[c] / 8
		}
	}
}

// fdctAAN runs the 2-D AAN forward butterfly from src into d: rows, then
// columns. Output is the scaled coefficient block (orthonormal *
// 8*aan[r]*aan[c]). The row pass reads src and writes d, so src survives
// (the quantizer's boundary fallback needs the spatial samples); d may be
// src for an in-place transform.
func fdctAAN(d, src *FloatBlock) {
	// Row pass.
	for i := 0; i < BlockLen; i += BlockSize {
		tmp0 := src[i+0] + src[i+7]
		tmp7 := src[i+0] - src[i+7]
		tmp1 := src[i+1] + src[i+6]
		tmp6 := src[i+1] - src[i+6]
		tmp2 := src[i+2] + src[i+5]
		tmp5 := src[i+2] - src[i+5]
		tmp3 := src[i+3] + src[i+4]
		tmp4 := src[i+3] - src[i+4]

		// Even part.
		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		d[i+0] = tmp10 + tmp11
		d[i+4] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		d[i+2] = tmp13 + z1
		d[i+6] = tmp13 - z1

		// Odd part.
		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC6
		z2 := aanC2mC6*tmp10 + z5
		z4 := aanC2pC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		d[i+5] = z13 + z2
		d[i+3] = z13 - z2
		d[i+1] = z11 + z4
		d[i+7] = z11 - z4
	}

	// Column pass.
	for i := 0; i < BlockSize; i++ {
		tmp0 := d[i+0*8] + d[i+7*8]
		tmp7 := d[i+0*8] - d[i+7*8]
		tmp1 := d[i+1*8] + d[i+6*8]
		tmp6 := d[i+1*8] - d[i+6*8]
		tmp2 := d[i+2*8] + d[i+5*8]
		tmp5 := d[i+2*8] - d[i+5*8]
		tmp3 := d[i+3*8] + d[i+4*8]
		tmp4 := d[i+3*8] - d[i+4*8]

		tmp10 := tmp0 + tmp3
		tmp13 := tmp0 - tmp3
		tmp11 := tmp1 + tmp2
		tmp12 := tmp1 - tmp2

		d[i+0*8] = tmp10 + tmp11
		d[i+4*8] = tmp10 - tmp11

		z1 := (tmp12 + tmp13) * aanC4
		d[i+2*8] = tmp13 + z1
		d[i+6*8] = tmp13 - z1

		tmp10 = tmp4 + tmp5
		tmp11 = tmp5 + tmp6
		tmp12 = tmp6 + tmp7

		z5 := (tmp10 - tmp12) * aanC6
		z2 := aanC2mC6*tmp10 + z5
		z4 := aanC2pC6*tmp12 + z5
		z3 := tmp11 * aanC4

		z11 := tmp7 + z3
		z13 := tmp7 - z3

		d[i+5*8] = z13 + z2
		d[i+3*8] = z13 - z2
		d[i+1*8] = z11 + z4
		d[i+7*8] = z11 - z4
	}
}

// idctAAN runs the 2-D AAN inverse butterfly in place. Input is the
// pre-scaled coefficient block (orthonormal * aan[r]*aan[c]/8); output is
// the spatial block.
func idctAAN(d *FloatBlock) {
	// Column pass.
	for i := 0; i < BlockSize; i++ {
		// Even part.
		tmp10 := d[i+0*8] + d[i+4*8]
		tmp11 := d[i+0*8] - d[i+4*8]

		tmp13 := d[i+2*8] + d[i+6*8]
		tmp12 := (d[i+2*8]-d[i+6*8])*aanSqrt2 - tmp13

		tmp0 := tmp10 + tmp13
		tmp3 := tmp10 - tmp13
		tmp1 := tmp11 + tmp12
		tmp2 := tmp11 - tmp12

		// Odd part.
		z13 := d[i+5*8] + d[i+3*8]
		z10 := d[i+5*8] - d[i+3*8]
		z11 := d[i+1*8] + d[i+7*8]
		z12 := d[i+1*8] - d[i+7*8]

		tmp7 := z11 + z13
		tmp11 = (z11 - z13) * aanSqrt2

		z5 := (z10 + z12) * aan2C2
		tmp10 = aanC2mC6i*z12 - z5
		tmp12 = -aanC2pC6i*z10 + z5

		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		d[i+0*8] = tmp0 + tmp7
		d[i+7*8] = tmp0 - tmp7
		d[i+1*8] = tmp1 + tmp6
		d[i+6*8] = tmp1 - tmp6
		d[i+2*8] = tmp2 + tmp5
		d[i+5*8] = tmp2 - tmp5
		d[i+4*8] = tmp3 + tmp4
		d[i+3*8] = tmp3 - tmp4
	}

	// Row pass.
	for i := 0; i < BlockLen; i += BlockSize {
		tmp10 := d[i+0] + d[i+4]
		tmp11 := d[i+0] - d[i+4]

		tmp13 := d[i+2] + d[i+6]
		tmp12 := (d[i+2]-d[i+6])*aanSqrt2 - tmp13

		tmp0 := tmp10 + tmp13
		tmp3 := tmp10 - tmp13
		tmp1 := tmp11 + tmp12
		tmp2 := tmp11 - tmp12

		z13 := d[i+5] + d[i+3]
		z10 := d[i+5] - d[i+3]
		z11 := d[i+1] + d[i+7]
		z12 := d[i+1] - d[i+7]

		tmp7 := z11 + z13
		tmp11 = (z11 - z13) * aanSqrt2

		z5 := (z10 + z12) * aan2C2
		tmp10 = aanC2mC6i*z12 - z5
		tmp12 = -aanC2pC6i*z10 + z5

		tmp6 := tmp12 - tmp7
		tmp5 := tmp11 - tmp6
		tmp4 := tmp10 + tmp5

		d[i+0] = tmp0 + tmp7
		d[i+7] = tmp0 - tmp7
		d[i+1] = tmp1 + tmp6
		d[i+6] = tmp1 - tmp6
		d[i+2] = tmp2 + tmp5
		d[i+5] = tmp2 - tmp5
		d[i+4] = tmp3 + tmp4
		d[i+3] = tmp3 - tmp4
	}
}

// quantBoundaryEps is the distance from a round-half boundary below which
// ForwardQuantizer defers to the reference basis. The fast and reference
// paths compute the same mathematical value to ~1e-11 absolute error over
// the JPEG input domain, so any disagreement in rounding requires the
// scaled value to sit within that distance of a boundary — far inside this
// epsilon. Deferring there makes the fast quantized output bit-identical
// to Quantize(ForwardReference(...)) by construction.
const quantBoundaryEps = 1e-6

// refCoefficient recomputes coefficient (v,c) of the forward DCT with
// exactly the reference implementation's operation order, so the fallback
// rounds the identical float64 the reference path would round.
func refCoefficient(spatial *FloatBlock, v, c int) float64 {
	var sum float64
	for y := 0; y < BlockSize; y++ {
		var row float64
		for x := 0; x < BlockSize; x++ {
			row += spatial[y*BlockSize+x] * cosTable[c][x]
		}
		sum += row * alpha[c] / 2 * cosTable[v][y]
	}
	return sum * alpha[v] / 2
}

// ForwardQuantizer is the forward DCT + quantization kernel for one
// quantization table: the AAN butterfly, then per coefficient one multiply
// by the folded (AAN scale / step) factor and a round-to-nearest by one
// magic-number add, with no data-dependent branch on the common path. The
// folded factors are built once per table rather than divided per block.
//
// Its output is bit-identical to Quantize(ForwardReference(spatial), q)
// followed by the AC clamp: the folded product differs from the reference
// coefficient / step by ~1e-11, so the two round alike unless the product
// lies within quantBoundaryEps of a half-integer, where the kernel rounds
// the reference basis value instead (refCoefficient).
type ForwardQuantizer struct {
	mul  [BlockLen]float64 // forwardScale[i] / q[i]
	step [BlockLen]float64 // q[i], for the reference fallback
	lo   [BlockLen]int32   // clamp floor: CoeffMin for DC, acMin for AC
}

// NewForwardQuantizer builds the kernel for table q. AC coefficients are
// clamped to [acMin, CoeffMax] (baseline JPEG cannot code AC -1024), DC to
// [CoeffMin, CoeffMax].
func NewForwardQuantizer(q *QuantTable, acMin int32) *ForwardQuantizer {
	k := &ForwardQuantizer{}
	for i := 0; i < BlockLen; i++ {
		k.step[i] = float64(q[i])
		k.mul[i] = forwardScale[i] / k.step[i]
		k.lo[i] = acMin
	}
	k.lo[0] = CoeffMin
	return k
}

// roundMagic is 1.5 * 2^52. For |p| < 2^51, p + roundMagic has no
// fraction bits left, so the addition rounds p to the nearest integer (half
// to even), and the low 32 bits of the sum's representation hold that
// integer in two's complement.
const roundMagic = 0x1.8p52

// Quantize transforms a level-shifted spatial block and writes the
// quantized, clamped coefficients into out. spatial is not modified.
func (k *ForwardQuantizer) Quantize(spatial *FloatBlock, out *Block) {
	var scaled FloatBlock
	fdctAAN(&scaled, spatial)
	for i := 0; i < BlockLen; i++ {
		p := scaled[i] * k.mul[i]
		y := p + roundMagic
		v := int32(math.Float64bits(y))
		// p - (y - roundMagic) is p's exact distance from its rounded
		// value; near ±0.5 the reference basis decides. Huge or non-finite
		// products also take the slow path.
		if math.Abs(p-(y-roundMagic)) > 0.5-quantBoundaryEps || !(math.Abs(p) < 1<<30) {
			v = k.slowRound(spatial, i, p)
		}
		out[i] = min(max(v, k.lo[i]), CoeffMax)
	}
}

// slowRound is Quantize's rare path for coefficient i: the reference
// basis near a rounding boundary, and a float-domain clamp for products
// too large for the magic-number rounding (a NaN from non-finite input
// lands on the floor).
func (k *ForwardQuantizer) slowRound(spatial *FloatBlock, i int, p float64) int32 {
	if math.Abs(p-math.Round(p)) > 0.5-quantBoundaryEps {
		p = refCoefficient(spatial, i/BlockSize, i%BlockSize) / k.step[i]
	}
	f := math.Round(p)
	if !(f >= float64(k.lo[i])) {
		return k.lo[i]
	}
	return int32(min(f, CoeffMax))
}
