package dct

import "math"

// Reduced (scaled) inverse DCT kernels, the coefficient-domain half of
// libjpeg-style scaled decoding: a thumbnail consumer never needs the full
// 8x8 spatial block, so the kernel reads only the top-left sub-block of
// coefficients and produces the handful of output samples directly.
//
// Definition (per axis, n output samples from 8 coefficients): take the
// full 8-point inverse DCT of the lowest n coefficients (the rest treated
// as zero), then downsample 8 -> n with the codebase's center-aligned
// 2-tap bilinear kernel (the same alignment ScaleBilinear and
// ResizeBilinearInto use, so the reduced path lands on the full path's
// sampling grid). Both linear steps fold into one n x 8 sampling matrix:
//
//	out[i] = sum_u M_n[i][u] * coeff[u]
//	M_n[i][u] = alpha[u]/4 * (cos((2*x0+1)u*pi/16) + cos((2*x1+1)u*pi/16))
//
// where x0 = (8/n)*i + (8/n)/2 - 1 and x1 = x0 + 1 are the two
// full-resolution samples the center-aligned n/8 downsample averages
// (weight 1/2 each, hence the /4 = /2 IDCT normalization * 1/2 tap
// weight). n = 8 is the identity downsample: M_8 is the plain IDCT basis
// alpha[u]/2 * cos((2i+1)u*pi/16).
//
// The two axes are independent, so rectangular kernels come for free:
// a 4:2:2 chroma plane at a 1/4-scale target uses a 4x2 kernel (full
// horizontal reduction is impossible because the plane is already
// half-width). Quantization folds into the coefficient load exactly like
// the AAN path folds it into inverseScale: one multiply per coefficient
// read, no separate dequantize pass, and only nv*nh of the 64
// coefficients are ever touched.

// ScaleDen is the fixed denominator of reduced decode scales: kernels
// produce num/8-size output for num in ScaledNums.
const ScaleDen = 8

// ScaledNums are the valid per-axis output sizes of the reduced kernels.
// 8 is the full axis (no reduction), used when a subsampled chroma plane
// already sits at or below the target resolution on that axis.
var ScaledNums = [4]int{1, 2, 4, 8}

// scaledBasis[k] is M_n for n = 1<<k: scaledBasis[k][i][u] maps input
// frequency u to output sample i. Rows beyond n are unused. Built by a
// var initializer (not an init func) so it never races the cosTable init
// in transform.go — scaledBasisAt is deliberately self-contained.
var scaledBasis = func() (m [4][BlockSize][BlockSize]float64) {
	for k, n := range ScaledNums {
		for i := 0; i < n; i++ {
			for u := 0; u < BlockSize; u++ {
				m[k][i][u] = scaledBasisAt(n, i, u)
			}
		}
	}
	return m
}()

// scaledBasisAt computes M_n[i][u] from the definition. It is evaluated
// once into scaledBasis for the fast kernel and re-evaluated on the fly by
// the naive reference, with the identical expression so the two paths see
// bit-identical matrix entries. The cosines are spelled exactly like the
// cosTable initializer in transform.go, so the n=8 row IS the standard
// IDCT basis.
func scaledBasisAt(n, i, u int) float64 {
	a := 1.0
	if u == 0 {
		a = 1 / math.Sqrt2
	}
	cos := func(x int) float64 {
		return math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
	}
	if n == BlockSize {
		return a / 2 * cos(i)
	}
	step := BlockSize / n
	x0 := step*i + step/2 - 1
	return a / 4 * (cos(x0) + cos(x0+1))
}

// scaledLog2 maps a valid n in ScaledNums to its scaledBasis index, or -1.
func scaledLog2(n int) int {
	switch n {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	case 8:
		return 3
	}
	return -1
}

// ValidScaledAxis reports whether n is a legal per-axis reduced size.
func ValidScaledAxis(n int) bool { return scaledLog2(n) >= 0 }

// InverseQuantizedScaledInto dequantizes the top-left nv x nh coefficients
// of b and writes the nv x nh reduced inverse DCT (row-major, level-
// shifted like InverseQuantized — callers add 128) into out, which must
// hold at least nv*nh samples. nh and nv must each be in ScaledNums.
//
// Bit-exact against InverseQuantizedScaledReference: the separable fast
// path factors the reference's quadruple loop without reassociating any
// floating-point sum (see the reference for the shared operation order).
func InverseQuantizedScaledInto(b *Block, q *QuantTable, nh, nv int, out []float64) {
	kh, kv := scaledLog2(nh), scaledLog2(nv)
	if kh < 0 || kv < 0 {
		panic("dct: invalid reduced IDCT axis size")
	}
	// The two square kernels the planner actually schedules (4x4 for
	// targets in (1/8, 1/2], 2x2 at or below 1/8) get unrolled bodies:
	// the generic triple loop spends more on indexing than arithmetic at
	// these sizes, and luma — the bulk of every image's blocks — is
	// always square. Rectangular chroma kernels stay on the generic path.
	switch {
	case nh == 4 && nv == 4:
		inverseScaled4x4(b, q, out)
		return
	case nh == 2 && nv == 2:
		inverseScaled2x2(b, q, out)
		return
	}
	mh, mv := &scaledBasis[kh], &scaledBasis[kv]
	// t[u][j] = sum_v (b*q)[u][v] * M_nh[j][v] — one row pass per kept
	// input row u; only the top-left nv x nh coefficients are read.
	var t [BlockLen]float64
	for u := 0; u < nv; u++ {
		row := u * BlockSize
		for j := 0; j < nh; j++ {
			var sum float64
			for v := 0; v < nh; v++ {
				sum += float64(b[row+v]) * float64(q[row+v]) * mh[j][v]
			}
			t[row+j] = sum
		}
	}
	// out[i][j] = sum_u M_nv[i][u] * t[u][j].
	for i := 0; i < nv; i++ {
		for j := 0; j < nh; j++ {
			var sum float64
			for u := 0; u < nv; u++ {
				sum += mv[i][u] * t[u*BlockSize+j]
			}
			out[i*nh+j] = sum
		}
	}
}

// inverseScaled4x4 is the unrolled nh = nv = 4 kernel. Each sum is
// written as the same left-associated ascending-index chain the generic
// path accumulates term by term, so the specialization stays bit-exact
// against InverseQuantizedScaledReference.
func inverseScaled4x4(b *Block, q *QuantTable, out []float64) {
	m := &scaledBasis[2]
	var t [16]float64
	for u := 0; u < 4; u++ {
		row := u * BlockSize
		d0 := float64(b[row]) * float64(q[row])
		d1 := float64(b[row+1]) * float64(q[row+1])
		d2 := float64(b[row+2]) * float64(q[row+2])
		d3 := float64(b[row+3]) * float64(q[row+3])
		for j := 0; j < 4; j++ {
			r := &m[j]
			t[u*4+j] = d0*r[0] + d1*r[1] + d2*r[2] + d3*r[3]
		}
	}
	for i := 0; i < 4; i++ {
		r := &m[i]
		m0, m1, m2, m3 := r[0], r[1], r[2], r[3]
		for j := 0; j < 4; j++ {
			out[i*4+j] = m0*t[j] + m1*t[4+j] + m2*t[8+j] + m3*t[12+j]
		}
	}
}

// inverseScaled2x2 is the unrolled nh = nv = 2 kernel; same operation
// order as the generic path, see inverseScaled4x4.
func inverseScaled2x2(b *Block, q *QuantTable, out []float64) {
	m := &scaledBasis[1]
	d00 := float64(b[0]) * float64(q[0])
	d01 := float64(b[1]) * float64(q[1])
	d10 := float64(b[BlockSize]) * float64(q[BlockSize])
	d11 := float64(b[BlockSize+1]) * float64(q[BlockSize+1])
	t00 := d00*m[0][0] + d01*m[0][1]
	t01 := d00*m[1][0] + d01*m[1][1]
	t10 := d10*m[0][0] + d11*m[0][1]
	t11 := d10*m[1][0] + d11*m[1][1]
	out[0] = m[0][0]*t00 + m[0][1]*t10
	out[1] = m[0][0]*t01 + m[0][1]*t11
	out[2] = m[1][0]*t00 + m[1][1]*t10
	out[3] = m[1][0]*t01 + m[1][1]*t11
}
