package dct

import "math"

// cosTable[u][x] = cos((2x+1) * u * pi / 16), the separable DCT-II basis.
var cosTable [BlockSize][BlockSize]float64

// alpha[u] is the DCT normalization factor: 1/sqrt(2) for u=0, 1 otherwise.
var alpha [BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		for x := 0; x < BlockSize; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
	alpha[0] = 1 / math.Sqrt2
	for u := 1; u < BlockSize; u++ {
		alpha[u] = 1
	}
}

// Forward computes the two-dimensional type-II DCT of an 8x8 spatial block
// using the AAN fast kernel (aan.go). The input samples are expected to be
// level-shifted (e.g. pixel-128 for 8-bit samples); the output is the raw
// (unquantized) coefficient block, equal to the naive reference DCT up to
// float rounding (~1e-12 over the 8-bit input domain).
func Forward(spatial *FloatBlock) FloatBlock {
	var out FloatBlock
	fdctAAN(&out, spatial)
	for i := 0; i < BlockLen; i++ {
		out[i] *= forwardScale[i]
	}
	return out
}

// Inverse computes the two-dimensional inverse DCT (type-III) using the AAN
// fast kernel, mapping a raw coefficient block back to level-shifted spatial
// samples. Equal to the naive reference inverse up to float rounding.
func Inverse(coeff *FloatBlock) FloatBlock {
	var in FloatBlock
	for i := 0; i < BlockLen; i++ {
		in[i] = coeff[i] * inverseScale[i]
	}
	idctAAN(&in)
	return in
}

// InverseQuantized dequantizes a coefficient block with the given table and
// applies the inverse DCT, producing level-shifted spatial samples. The
// dequantization step sizes are folded into the AAN input scaling.
func InverseQuantized(b *Block, q *QuantTable) FloatBlock {
	var in FloatBlock
	for i := 0; i < BlockLen; i++ {
		in[i] = float64(b[i]) * (float64(q[i]) * inverseScale[i])
	}
	idctAAN(&in)
	return in
}
