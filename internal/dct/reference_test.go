package dct

// Naive reference transforms: the equivalence oracles the fast kernels are
// tested against. They have no caller outside tests.

// ForwardReference is the naive separable O(8^3) DCT kept as the
// equivalence oracle for the fast kernel (rows, then columns, explicit
// basis dot products).
func ForwardReference(spatial *FloatBlock) FloatBlock {
	var tmp, out FloatBlock
	for r := 0; r < BlockSize; r++ {
		for u := 0; u < BlockSize; u++ {
			var sum float64
			for x := 0; x < BlockSize; x++ {
				sum += spatial[r*BlockSize+x] * cosTable[u][x]
			}
			tmp[r*BlockSize+u] = sum * alpha[u] / 2
		}
	}
	for c := 0; c < BlockSize; c++ {
		for v := 0; v < BlockSize; v++ {
			var sum float64
			for y := 0; y < BlockSize; y++ {
				sum += tmp[y*BlockSize+c] * cosTable[v][y]
			}
			out[v*BlockSize+c] = sum * alpha[v] / 2
		}
	}
	return out
}

// InverseReference is the naive separable inverse DCT kept as the
// equivalence oracle for the fast kernel.
func InverseReference(coeff *FloatBlock) FloatBlock {
	var tmp, out FloatBlock
	for c := 0; c < BlockSize; c++ {
		for y := 0; y < BlockSize; y++ {
			var sum float64
			for v := 0; v < BlockSize; v++ {
				sum += alpha[v] * coeff[v*BlockSize+c] * cosTable[v][y]
			}
			tmp[y*BlockSize+c] = sum / 2
		}
	}
	for r := 0; r < BlockSize; r++ {
		for x := 0; x < BlockSize; x++ {
			var sum float64
			for u := 0; u < BlockSize; u++ {
				sum += alpha[u] * tmp[r*BlockSize+u] * cosTable[u][x]
			}
			out[r*BlockSize+x] = sum / 2
		}
	}
	return out
}

// InverseQuantizedReference is the pre-AAN dequantizing path (Dequantize
// then reference inverse DCT), kept for equivalence testing.
func InverseQuantizedReference(b *Block, q *QuantTable) FloatBlock {
	raw := Dequantize(b, q)
	return InverseReference(&raw)
}

// ForwardQuantizedReference is the pre-AAN quantizing path (reference DCT
// then Quantize), the oracle for ForwardQuantizer.
func ForwardQuantizedReference(spatial *FloatBlock, q *QuantTable) Block {
	raw := ForwardReference(spatial)
	return Quantize(&raw, q)
}

// forwardQuantized is the one-shot form of ForwardQuantizer with the full
// JPEG coefficient range, which is what Quantize clamps to.
func forwardQuantized(spatial *FloatBlock, q *QuantTable) Block {
	var out Block
	NewForwardQuantizer(q, CoeffMin).Quantize(spatial, &out)
	return out
}

// InverseQuantizedScaledReference is the naive form of the same
// mathematical definition, kept as the exactness oracle: it recomputes
// every basis entry from scaledBasisAt and evaluates, for each output
// sample, the column sum of row sums
//
//	out[i][j] = sum_u M_nv[i][u] * (sum_v (b*q)[u][v] * M_nh[j][v])
//
// with ascending u and v. The fast kernel computes the identical inner
// sums once per input row and combines them in the identical order, so
// the two agree bit for bit (not merely within rounding).
func InverseQuantizedScaledReference(b *Block, q *QuantTable, nh, nv int, out []float64) {
	if !ValidScaledAxis(nh) || !ValidScaledAxis(nv) {
		panic("dct: invalid reduced IDCT axis size")
	}
	for i := 0; i < nv; i++ {
		for j := 0; j < nh; j++ {
			var sum float64
			for u := 0; u < nv; u++ {
				var inner float64
				for v := 0; v < nh; v++ {
					inner += float64(b[u*BlockSize+v]) * float64(q[u*BlockSize+v]) * scaledBasisAt(nh, j, v)
				}
				sum += scaledBasisAt(nv, i, u) * inner
			}
			out[i*nh+j] = sum
		}
	}
}
