package jpegc

import (
	"fmt"
	"io"
	"math/bits"
	"sync"

	"puppies/internal/dct"
	"puppies/internal/parallel"
)

// TableMode selects how Huffman tables are chosen at encode time.
type TableMode int

const (
	// TablesDefault uses the Annex K typical tables (libjpeg default).
	TablesDefault TableMode = iota + 1
	// TablesOptimized derives per-image tables from the actual symbol
	// distribution in a first statistics pass (libjpeg optimize_coding).
	// PuPPIeS-C depends on this mode.
	TablesOptimized
)

// EncodeOptions control bit-stream generation.
type EncodeOptions struct {
	// Tables selects default or optimized Huffman tables. Zero value means
	// TablesDefault.
	Tables TableMode
	// RestartInterval, when positive, emits a DRI segment and RSTn markers
	// every that many MCUs, allowing decoders to resynchronize after
	// corruption. Zero disables restart markers (the default).
	RestartInterval int
}

func (o EncodeOptions) tables() TableMode {
	if o.Tables == 0 {
		return TablesDefault
	}
	return o.Tables
}

// tableSet is the four Huffman specs used in one scan. For grayscale only
// the first two are used.
type tableSet struct {
	dcLum, acLum, dcChrom, acChrom HuffmanSpec
}

// Encode writes the coefficient image as a baseline JFIF stream: grayscale
// for 1 component, YUV at the components' native sampling for 3 components
// (4:4:4 when all components sample 1x1, MCU-interleaved 4:2:0/4:2:2/4:4:0
// otherwise). Blocks in the MCU padding margin of subsampled layouts are
// filled by edge-block replication, which round-trips: the decoder writes
// them into the padded grid and trims them away.
//
// Encode only reads m, so concurrent calls may share one image: its
// per-call scratch (the nonzero-coefficient bitmaps) comes from a pool.
func (m *Image) Encode(w io.Writer, opts EncodeOptions) error {
	if err := m.Validate(); err != nil {
		return err
	}
	masks := getMasks(m)
	defer maskPool.Put(masks)
	if err := m.scanCoefficients(masks); err != nil {
		return err
	}

	mode := opts.tables()
	if mode != TablesDefault && mode != TablesOptimized {
		return fmt.Errorf("jpegc: unknown table mode %d", opts.Tables)
	}
	if opts.RestartInterval < 0 || opts.RestartInterval > 0xffff {
		return fmt.Errorf("jpegc: restart interval %d out of range [0, 65535]", opts.RestartInterval)
	}
	tables := tableSet{
		dcLum: StdDCLuminance, acLum: StdACLuminance,
		dcChrom: StdDCChrominance, acChrom: StdACChrominance,
	}
	if mode == TablesOptimized {
		var err error
		if tables, err = m.gatherOptimalTables(masks, opts.RestartInterval); err != nil {
			return err
		}
	}
	if err := writeMarkers(w, m, &tables, opts.RestartInterval); err != nil {
		return err
	}
	if err := m.writeScan(w, masks, &tables, opts.RestartInterval); err != nil {
		return err
	}
	_, err := w.Write([]byte{0xff, markerEOI})
	return err
}

// EncodedSize returns the byte length of the encoded stream without
// retaining it.
func (m *Image) EncodedSize(opts EncodeOptions) (int64, error) {
	var cw countingWriter
	if err := m.Encode(&cw, opts); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// blockMasks holds one Encode call's nonzero-AC bitmaps: comp[ci][bi] has
// bit zz set when the coefficient at zigzag position zz (1..63) of block
// bi of component ci is nonzero (the jchuff.c technique). Both entropy
// walks step through the set bits with TrailingZeros64 instead of testing
// all 63 AC positions.
type blockMasks struct {
	buf  []uint64
	comp [3][]uint64
}

var maskPool = sync.Pool{New: func() any { return new(blockMasks) }}

// getMasks returns bitmaps sized for m's grids. Their contents are
// undefined until scanCoefficients fills them.
func getMasks(m *Image) *blockMasks {
	bm := maskPool.Get().(*blockMasks)
	n := 0
	for ci := range m.Comps {
		n += len(m.Comps[ci].Blocks)
	}
	if cap(bm.buf) < n {
		bm.buf = make([]uint64, n)
	}
	bm.buf = bm.buf[:n]
	off := 0
	for ci := range m.Comps {
		k := len(m.Comps[ci].Blocks)
		bm.comp[ci] = bm.buf[off : off+k : off+k]
		off += k
	}
	return bm
}

// maskGrain is the parallel chunk size of the coefficient scan, in blocks.
const maskGrain = 1024

// scanCoefficients is Encode's single pass over the coefficients: it checks
// every block against the baseline ranges (DC [-1024, 1023], AC [-1023,
// 1023]) and records its nonzero-AC bitmap. Blocks are independent, so
// the pass runs in parallel; the reported error is the first bad
// coefficient in component, block, row-major order.
func (m *Image) scanCoefficients(masks *blockMasks) error {
	// One parallel pass over every component's blocks: chunk indices run
	// over the concatenated grids, in the order masks.buf lays them out.
	firstBad := parallel.Map(len(masks.buf), maskGrain, func(lo, hi int) int {
		base := 0
		for ci := range m.Comps {
			blocks, dst := m.Comps[ci].Blocks, masks.comp[ci]
			for i := max(lo, base); i < min(hi, base+len(blocks)); i++ {
				mask, ok := blockMask(&blocks[i-base])
				if !ok {
					return i
				}
				dst[i-base] = mask
			}
			base += len(blocks)
		}
		return -1
	})
	for _, i := range firstBad {
		if i < 0 {
			continue
		}
		for ci := range m.Comps {
			if n := len(m.Comps[ci].Blocks); i >= n {
				i -= n
				continue
			}
			return rangeError(ci, i, &m.Comps[ci].Blocks[i])
		}
	}
	return nil
}

// blockMask returns b's nonzero-AC bitmap and whether every coefficient is
// in the baseline range. It reads the block a row at a time in storage
// order with no data-dependent branch, then permutes the row-major bitmap
// to zigzag order a byte at a time through zigzagMaskLUT. The range test
// folds DC in with the AC bounds; only a block whose minimum falls below
// ACMin (which a DC of -1024 legitimately does) takes the exact recheck.
func blockMask(b *dct.Block) (mask uint64, ok bool) {
	lo, hi := b[0], b[0]
	var rowMajor uint64
	for r := 0; r < dct.BlockLen; r += dct.BlockSize {
		row := b[r : r+dct.BlockSize : r+dct.BlockSize]
		v0, v1, v2, v3, v4, v5, v6, v7 := row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
		lo = min(lo, v0, v1, v2, v3, v4, v5, v6, v7)
		hi = max(hi, v0, v1, v2, v3, v4, v5, v6, v7)
		rowMajor |= (nonzero(v0) | nonzero(v1)<<1 | nonzero(v2)<<2 | nonzero(v3)<<3 |
			nonzero(v4)<<4 | nonzero(v5)<<5 | nonzero(v6)<<6 | nonzero(v7)<<7) << r
	}
	rowMajor &^= 1 // DC is coded separately
	for k := range zigzagMaskLUT {
		mask |= zigzagMaskLUT[k][byte(rowMajor>>(8*k))]
	}
	ok = lo >= ACMin && hi <= dct.CoeffMax
	if !ok {
		ok = rangeError(0, 0, b) == nil
	}
	return mask, ok
}

// nonzero is 1 when v != 0 and 0 otherwise, without a branch.
func nonzero(v int32) uint64 { return uint64(uint32(v|-v) >> 31) }

// zigzagMaskLUT[k][v] is the zigzag-order bitmap of the row-major bitmap
// whose byte k is v (row k of the block), so a full permutation is eight
// lookups.
var zigzagMaskLUT = func() (t [dct.BlockSize][256]uint64) {
	for k := range t {
		for v := range t[k] {
			for c := 0; c < dct.BlockSize; c++ {
				if v&(1<<c) != 0 {
					t[k][v] |= 1 << dct.UnZigZag[k*dct.BlockSize+c]
				}
			}
		}
	}
	return t
}()

// rangeError reports the first out-of-range coefficient of block bi of
// component ci, DC first, then AC in row-major order.
func rangeError(ci, bi int, b *dct.Block) error {
	if b[0] < dct.CoeffMin || b[0] > dct.CoeffMax {
		return fmt.Errorf("jpegc: component %d block %d DC %d out of range [%d,%d]",
			ci, bi, b[0], dct.CoeffMin, dct.CoeffMax)
	}
	for i := 1; i < dct.BlockLen; i++ {
		if b[i] < ACMin || b[i] > dct.CoeffMax {
			return fmt.Errorf("jpegc: component %d block %d AC[%d] %d out of range [%d,%d]",
				ci, bi, i, b[i], ACMin, dct.CoeffMax)
		}
	}
	return nil
}

// Marker codes (second byte after 0xFF).
const (
	markerSOI  = 0xd8
	markerEOI  = 0xd9
	markerSOF0 = 0xc0
	markerDHT  = 0xc4
	markerDQT  = 0xdb
	markerSOS  = 0xda
	markerAPP0 = 0xe0
	markerDRI  = 0xdd
	markerCOM  = 0xfe
	markerRST0 = 0xd0
	markerRST7 = 0xd7
)

// appendSegment appends one marker segment (marker, length, payload).
func appendSegment(dst []byte, marker byte, payload []byte) ([]byte, error) {
	if len(payload)+2 > 0xffff {
		return dst, fmt.Errorf("jpegc: segment %#x payload too long (%d)", marker, len(payload))
	}
	dst = append(dst, 0xff, marker, byte((len(payload)+2)>>8), byte(len(payload)+2))
	return append(dst, payload...), nil
}

// writeMarkers writes every header segment up to and including SOS in one
// Write: each segment's payload is staged in scratch and appended to hdr.
func writeMarkers(w io.Writer, m *Image, tables *tableSet, restartInterval int) error {
	hdr := make([]byte, 0, 2048)
	scratch := make([]byte, 0, 1024)
	hdr = append(hdr, 0xff, markerSOI)
	// APP0 JFIF header, version 1.1, no density information.
	app0 := []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}
	hdr, _ = appendSegment(hdr, markerAPP0, app0)

	// DQT: table 0 = luminance; table 1 = the first chrominance
	// component's; the second chrominance component shares table 1 when
	// equal (the usual case) and gets table 2 otherwise, so every
	// component is written with its own steps.
	var quants [3]*dct.QuantTable
	var qids [3]byte
	nq := 1
	quants[0] = &m.Comps[0].Quant
	for ci := 1; ci < len(m.Comps); ci++ {
		qids[ci] = byte(nq)
		for id := 1; id < nq; id++ {
			if *quants[id] == m.Comps[ci].Quant {
				qids[ci] = byte(id)
			}
		}
		if int(qids[ci]) == nq {
			quants[nq] = &m.Comps[ci].Quant
			nq++
		}
	}
	dqt := scratch[:0]
	for id, src := range quants[:nq] {
		dqt = append(dqt, byte(id)) // 8-bit precision, table id
		for zz := 0; zz < dct.BlockLen; zz++ {
			v := src[dct.ZigZag[zz]]
			if v > 255 {
				return fmt.Errorf("jpegc: quant step %d too large for 8-bit DQT", v)
			}
			dqt = append(dqt, byte(v))
		}
	}
	hdr, _ = appendSegment(hdr, markerDQT, dqt)

	// SOF0: baseline, 8-bit precision, per-component sampling factors.
	sof := append(scratch[:0], 8, byte(m.H>>8), byte(m.H), byte(m.W>>8), byte(m.W), byte(len(m.Comps)))
	for ci := range m.Comps {
		hs, vs := m.Comps[ci].Sampling()
		sof = append(sof, byte(ci+1), byte(hs<<4|vs), qids[ci])
	}
	hdr, _ = appendSegment(hdr, markerSOF0, sof)

	// DHT: class 0 = DC, class 1 = AC; id 0 = luminance, id 1 = chrominance.
	dht := scratch[:0]
	appendSpec := func(class, id byte, s *HuffmanSpec) {
		dht = append(dht, class<<4|id)
		dht = append(dht, s.Counts[:]...)
		dht = append(dht, s.Values...)
	}
	appendSpec(0, 0, &tables.dcLum)
	appendSpec(1, 0, &tables.acLum)
	if len(m.Comps) == 3 {
		appendSpec(0, 1, &tables.dcChrom)
		appendSpec(1, 1, &tables.acChrom)
	}
	var err error
	if hdr, err = appendSegment(hdr, markerDHT, dht); err != nil {
		return err
	}

	// DRI (only when restart markers are requested).
	if restartInterval > 0 {
		hdr, _ = appendSegment(hdr, markerDRI, []byte{byte(restartInterval >> 8), byte(restartInterval)})
	}

	// SOS.
	sos := append(scratch[:0], byte(len(m.Comps)))
	for ci := range m.Comps {
		tid := byte(0x00)
		if ci > 0 {
			tid = 0x11
		}
		sos = append(sos, byte(ci+1), tid)
	}
	sos = append(sos, 0, 63, 0) // spectral selection 0..63, successive approx 0
	hdr, _ = appendSegment(hdr, markerSOS, sos)
	_, err = w.Write(hdr)
	return err
}

// encodeBlock entropy-codes one block given its nonzero-AC bitmap and DC
// predictor, returning the new predictor value. Each Huffman code is
// packed together with its magnitude bits into a single WriteBits call (at
// most 16+11 = 27 bits). countBlock must emit the identical symbol stream
// — the two walks are deliberately parallel; TestEncodeOptimizedRoundTrip
// breaks if they drift.
func encodeBlock(bw *bitWriter, b *dct.Block, mask uint64, pred int32, dcT, acT *encTable) (int32, error) {
	diff := b[0] - pred
	cat := magnitudeCategory(diff)
	if dcT.size[cat] == 0 {
		return 0, fmt.Errorf("jpegc: DC symbol %#x has no huffman code", cat)
	}
	bw.WriteBits(dcT.code[cat]<<cat|magnitudeBits(diff, cat), uint(dcT.size[cat])+uint(cat))

	last := 0
	for ; mask != 0; mask &= mask - 1 {
		zz := bits.TrailingZeros64(mask)
		run := zz - last - 1
		last = zz
		for ; run > 15; run -= 16 {
			if acT.size[0xf0] == 0 {
				return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0xf0)
			}
			bw.WriteBits(acT.code[0xf0], uint(acT.size[0xf0])) // ZRL
		}
		v := b[dct.ZigZag[zz]&(dct.BlockLen-1)]
		size := magnitudeCategory(v)
		sym := byte(run<<4 | size)
		if acT.size[sym] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", sym)
		}
		bw.WriteBits(acT.code[sym]<<size|magnitudeBits(v, size), uint(acT.size[sym])+uint(size))
	}
	if last < dct.BlockLen-1 {
		if acT.size[0x00] == 0 {
			return 0, fmt.Errorf("jpegc: AC symbol %#x has no huffman code", 0x00)
		}
		bw.WriteBits(acT.code[0x00], uint(acT.size[0x00])) // EOB
	}
	return b[0], nil
}

// countBlock walks one block exactly like encodeBlock but accumulates
// symbol frequencies instead of emitting bits (the statistics pass of the
// optimized-tables mode), returning the new DC predictor.
func countBlock(b *dct.Block, mask uint64, pred int32, dc, ac *[256]int64) int32 {
	dc[magnitudeCategory(b[0]-pred)]++
	last := 0
	for ; mask != 0; mask &= mask - 1 {
		zz := bits.TrailingZeros64(mask)
		run := zz - last - 1
		last = zz
		ac[0xf0] += int64(run >> 4) // ZRL per full run of 16
		ac[(run&15)<<4|magnitudeCategory(b[dct.ZigZag[zz]&(dct.BlockLen-1)])]++
	}
	if last < dct.BlockLen-1 {
		ac[0x00]++ // EOB
	}
	return b[0]
}

// histGrain is the number of MCUs per chunk in the parallel statistics
// pass; at ~64 symbols per MCU a chunk is enough work to amortize the
// per-chunk histogram.
const histGrain = 256

// mcuGrid returns the scan's MCU counts: for 4:4:4 an MCU is one block per
// component, for subsampled layouts it spans 8*maxH x 8*maxV pixels.
func (m *Image) mcuGrid() (mcusX, mcusY int) {
	maxH, maxV := m.MaxSampling()
	mcusX = (m.W + dct.BlockSize*maxH - 1) / (dct.BlockSize * maxH)
	mcusY = (m.H + dct.BlockSize*maxV - 1) / (dct.BlockSize * maxV)
	return mcusX, mcusY
}

// clampedIndex returns the grid index of the block at (bx, by), replicating
// the nearest edge block for coordinates in the MCU padding margin outside
// the nominal grid (the scan walks whole MCUs, the grid stores only nominal
// blocks).
func (c *Component) clampedIndex(bx, by int) int {
	return min(by, c.BlocksH-1)*c.BlocksW + min(bx, c.BlocksW-1)
}

// scanComp is one component's place in the interleaved scan.
type scanComp struct {
	comp   *Component
	masks  []uint64
	hs, vs int
	table  int // 0 = luminance tables, 1 = chrominance
}

// scanComps resolves, once per walk, what the per-block loops need of
// each component.
func (m *Image) scanComps(masks *blockMasks) (out [3]scanComp) {
	for ci := range m.Comps {
		c := &m.Comps[ci]
		hs, vs := c.Sampling()
		out[ci] = scanComp{comp: c, masks: masks.comp[ci], hs: hs, vs: vs, table: min(ci, 1)}
	}
	return out
}

func (m *Image) gatherOptimalTables(masks *blockMasks, restartInterval int) (tableSet, error) {
	// The statistics pass is embarrassingly parallel: the DC symbol of MCU
	// i depends only on the stored DC of MCU i-1 (the predictor is the
	// previous block's coefficient, not an encoder-state value) or on zero
	// when MCU i starts a restart interval, so each chunk seeds its
	// predictors from the last block its component emits in the MCU just
	// before it. Histograms are integer counts, so merging per-chunk
	// partials is exact and order-independent. The per-chunk histograms
	// (8 KiB each) come from a pool and go back after the merge. The walk
	// must count the identical symbol stream writeScan emits, replicated
	// MCU-padding blocks and restart predictor resets included.
	mcusX, mcusY := m.mcuGrid()
	comps := m.scanComps(masks)
	parts := parallel.Map(mcusX*mcusY, histGrain, func(lo, hi int) *symbolHist {
		h := getHist()
		var pred [4]int32
		if lo > 0 {
			pmx, pmy := (lo-1)%mcusX, (lo-1)/mcusX
			for ci := range m.Comps {
				sc := &comps[ci]
				pred[ci] = sc.comp.Blocks[sc.comp.clampedIndex(pmx*sc.hs+sc.hs-1, pmy*sc.vs+sc.vs-1)][0]
			}
		}
		for mcu := lo; mcu < hi; mcu++ {
			if restartInterval > 0 && mcu%restartInterval == 0 {
				pred = [4]int32{}
			}
			mx, my := mcu%mcusX, mcu/mcusX
			for ci := range m.Comps {
				sc := &comps[ci]
				for v := 0; v < sc.vs; v++ {
					for hh := 0; hh < sc.hs; hh++ {
						bi := sc.comp.clampedIndex(mx*sc.hs+hh, my*sc.vs+v)
						pred[ci] = countBlock(&sc.comp.Blocks[bi], sc.masks[bi], pred[ci], &h.dc[sc.table], &h.ac[sc.table])
					}
				}
			}
		}
		return h
	})
	var dcFreq, acFreq [2][256]int64
	for _, h := range parts {
		for ti := 0; ti < 2; ti++ {
			for s := 0; s < 256; s++ {
				dcFreq[ti][s] += h.dc[ti][s]
				acFreq[ti][s] += h.ac[ti][s]
			}
		}
		putHist(h)
	}

	var ts tableSet
	var err error
	if ts.dcLum, err = BuildOptimalSpec(&dcFreq[0]); err != nil {
		return ts, fmt.Errorf("jpegc: optimal DC luminance table: %w", err)
	}
	if ts.acLum, err = BuildOptimalSpec(&acFreq[0]); err != nil {
		return ts, fmt.Errorf("jpegc: optimal AC luminance table: %w", err)
	}
	if len(m.Comps) == 3 {
		if ts.dcChrom, err = BuildOptimalSpec(&dcFreq[1]); err != nil {
			return ts, fmt.Errorf("jpegc: optimal DC chrominance table: %w", err)
		}
		if ts.acChrom, err = BuildOptimalSpec(&acFreq[1]); err != nil {
			return ts, fmt.Errorf("jpegc: optimal AC chrominance table: %w", err)
		}
	}
	return ts, nil
}

func (m *Image) writeScan(w io.Writer, masks *blockMasks, tables *tableSet, restartInterval int) error {
	var dcEnc, acEnc [2]encTable
	if err := dcEnc[0].init(&tables.dcLum); err != nil {
		return err
	}
	if err := acEnc[0].init(&tables.acLum); err != nil {
		return err
	}
	if len(m.Comps) == 3 {
		if err := dcEnc[1].init(&tables.dcChrom); err != nil {
			return err
		}
		if err := acEnc[1].init(&tables.acChrom); err != nil {
			return err
		}
	}

	bw := newBitWriter(w)
	defer bw.release()
	comps := m.scanComps(masks)
	var pred [4]int32
	mcusX, mcusY := m.mcuGrid()
	mcu, rstIndex := 0, 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			if restartInterval > 0 && mcu > 0 && mcu%restartInterval == 0 {
				bw.WriteRestart(rstIndex) // pad, emit RSTn, reset DC prediction
				rstIndex++
				pred = [4]int32{}
			}
			mcu++
			// An MCU carries hs x vs blocks per component (one block each in
			// the 4:4:4 layout); padding positions replicate the edge block.
			for ci := range m.Comps {
				sc := &comps[ci]
				dcT, acT := &dcEnc[sc.table], &acEnc[sc.table]
				for v := 0; v < sc.vs; v++ {
					for h := 0; h < sc.hs; h++ {
						bi := sc.comp.clampedIndex(mx*sc.hs+h, my*sc.vs+v)
						next, err := encodeBlock(bw, &sc.comp.Blocks[bi], sc.masks[bi], pred[ci], dcT, acT)
						if err != nil {
							bw.setErr(err)
							return bw.Flush()
						}
						pred[ci] = next
					}
				}
			}
		}
	}
	return bw.Flush()
}
