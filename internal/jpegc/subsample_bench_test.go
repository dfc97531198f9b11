package jpegc

import (
	"bytes"
	"image"
	"testing"
)

// subsampledBenchJPEG encodes a textured 512x384 4:2:0 stream with the
// stdlib encoder (the only pure-stdlib source of genuinely subsampled
// input).
func subsampledBenchJPEG(b *testing.B) []byte {
	b.Helper()
	return stdlibYCbCr(b, 512, 384, image.YCbCrSubsampleRatio420)
}

// BenchmarkDecodeNative420 measures the native-subsampling decode path on a
// 4:2:0 stream: chroma stays at quarter resolution, so the coefficient
// working set is half the normalized one (coeff-bytes/op reports it; the
// perf gate table checks the >=1.5x reduction against
// BenchmarkDecodeNormalized420).
func BenchmarkDecodeNative420(b *testing.B) {
	data := subsampledBenchJPEG(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var coeffBytes int
	for i := 0; i < b.N; i++ {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		coeffBytes = img.CoeffBytes()
		img.Recycle()
	}
	b.ReportMetric(float64(coeffBytes), "coeff-bytes/op")
}

// BenchmarkDecodeNormalized420 is the legacy pipeline on the same stream:
// decode plus 4:4:4 normalization (chroma dequantized, upsampled and
// re-quantized at full resolution). Both its time and its coefficient
// working set are what the native path saves.
func BenchmarkDecodeNormalized420(b *testing.B) {
	data := subsampledBenchJPEG(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var coeffBytes int
	for i := 0; i < b.N; i++ {
		img, err := Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		norm, err := img.Normalize444()
		if err != nil {
			b.Fatal(err)
		}
		coeffBytes = norm.CoeffBytes()
		img.Recycle()
	}
	b.ReportMetric(float64(coeffBytes), "coeff-bytes/op")
}
