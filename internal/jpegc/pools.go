package jpegc

import (
	"sync"

	"puppies/internal/dct"
)

// Scratch pools for the entropy-coding hot path. Contract: everything a
// Get returns is fully reset (zero counts, zero length), so callers never
// observe another image's data. TestPoolsResetPoisonedBuffers enforces this
// by poisoning buffers before returning them.

// byteBufPool recycles the large, short-lived byte buffers of the scan
// path: the decoder's whole-scan entropy buffer and the encoder's staged
// bit-stream output.
var byteBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<16)
		return &b
	},
}

// getByteBuf returns an empty byte buffer with nonzero capacity.
func getByteBuf() []byte {
	b := *byteBufPool.Get().(*[]byte)
	return b[:0]
}

// putByteBuf recycles a buffer obtained from getByteBuf. The caller must
// not retain any slice aliasing it.
func putByteBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	byteBufPool.Put(&b)
}

// blockSlabPool recycles whole coefficient grids (the dominant allocation
// of a decode: one slab per component, sized in MCU multiples). Slabs are
// pointer-free, so pooling them removes both the mallocs and the GC sweep
// work of decode-heavy paths like upload validation.
var blockSlabPool = sync.Pool{New: func() any { return new([]dct.Block) }}

// getBlockSlab returns a zeroed slab of n blocks, reusing pooled storage
// when a large enough slab is available.
func getBlockSlab(n int) []dct.Block {
	s := *blockSlabPool.Get().(*[]dct.Block)
	if cap(s) < n {
		return make([]dct.Block, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getBlockSlabUncleared is getBlockSlab without the zeroing, the one
// exception to the reset contract above: its contents are undefined, so
// only a caller that overwrites all n blocks (the forward path) may use
// it.
func getBlockSlabUncleared(n int) []dct.Block {
	s := *blockSlabPool.Get().(*[]dct.Block)
	if cap(s) < n {
		return make([]dct.Block, n)
	}
	return s[:n]
}

// rowScratchPool recycles the forward path's per-worker row buffers
// (converted YUV rows of one block row of a stdlib image).
var rowScratchPool = sync.Pool{New: func() any { return new([]float32) }}

// getRowScratch returns a buffer of n samples with undefined contents.
func getRowScratch(n int) *[]float32 {
	b := rowScratchPool.Get().(*[]float32)
	if cap(*b) < n {
		*b = make([]float32, n)
	}
	*b = (*b)[:n]
	return b
}

func putRowScratch(b *[]float32) { rowScratchPool.Put(b) }

// putBlockSlab recycles a slab. The caller asserts sole ownership: nothing
// may alias the slab afterwards.
func putBlockSlab(s []dct.Block) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	blockSlabPool.Put(&s)
}

// symbolHist accumulates DC and AC symbol frequencies for one table pair
// (index 0 = luminance, 1 = chrominance) during the optimized-tables
// statistics pass.
type symbolHist struct {
	dc, ac [2][256]int64
}

var histPool = sync.Pool{New: func() any { return &symbolHist{} }}

// getHist returns a zeroed histogram.
func getHist() *symbolHist {
	h := histPool.Get().(*symbolHist)
	h.dc = [2][256]int64{}
	h.ac = [2][256]int64{}
	return h
}

// putHist recycles a histogram obtained from getHist.
func putHist(h *symbolHist) { histPool.Put(h) }
