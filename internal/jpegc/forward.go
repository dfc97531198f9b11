package jpegc

import (
	"image"

	"puppies/internal/dct"
	"puppies/internal/imgplane"
	"puppies/internal/parallel"
)

// The forward path (DESIGN.md §18): pixels to quantized coefficient blocks
// in one streaming pass. Workers take bands of block rows; for each block
// row they gather the eight sample rows of every component (straight from
// the planes, or converted from a stdlib image into per-worker scratch),
// then run the forward DCT + quantization kernel block by block and write
// the result into the component's grid. Only blocks on the right and
// bottom edges replicate samples; interior blocks read their rows
// directly. Chunk boundaries are fixed by parallel.For and every block is
// a pure function of its samples, so the output is identical at any
// worker count.

// Options control pixel <-> coefficient conversion.
type Options struct {
	// Quality is the libjpeg-style quality in [1,100]; 0 means the default
	// of 75.
	Quality int
}

const defaultQuality = 75

// quantTables returns the Annex K tables scaled to the options' quality.
func (o Options) quantTables() (lum, chrom dct.QuantTable, err error) {
	q := o.Quality
	if q == 0 {
		q = defaultQuality
	}
	if lum, err = dct.StdLuminanceQuant.ScaleQuality(q); err != nil {
		return lum, chrom, err
	}
	chrom, err = dct.StdChrominanceQuant.ScaleQuality(q)
	return lum, chrom, err
}

// FromPlanar converts a planar YUV image into a quantized coefficient image.
// Edge blocks are padded by edge replication, as conventional encoders do.
func FromPlanar(src *imgplane.Image, opts Options) (*Image, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	lum, chrom, err := opts.quantTables()
	if err != nil {
		return nil, err
	}
	return FromPlanarWithQuant(src, &lum, &chrom)
}

// FromPlanarWithQuant is FromPlanar with explicit quantization tables, used
// when re-encoding must preserve an existing image's tables (e.g. PSP-side
// pixel-domain transforms).
func FromPlanarWithQuant(src *imgplane.Image, lum, chrom *dct.QuantTable) (*Image, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := lum.Validate(); err != nil {
		return nil, err
	}
	if err := chrom.Validate(); err != nil {
		return nil, err
	}
	return forwardImage(&rowSource{w: src.W(), h: src.H(), planes: src.Planes}, lum, chrom), nil
}

// FromStdImage converts a stdlib image straight to a 3-component 4:4:4
// coefficient image. It equals FromPlanar(imgplane.FromStdImage(src)) bit
// for bit — both convert pixels with imgplane.StdRowReader — but never
// materializes the full-resolution float32 planes: each worker converts
// only the eight rows of the block row it is quantizing.
func FromStdImage(src image.Image, opts Options) (*Image, error) {
	rows, err := imgplane.NewStdRowReader(src)
	if err != nil {
		return nil, err
	}
	lum, chrom, err := opts.quantTables()
	if err != nil {
		return nil, err
	}
	return forwardImage(&rowSource{w: rows.W(), h: rows.H(), std: rows}, &lum, &chrom), nil
}

// rowSource supplies the sample rows of a w x h image: either planes, read
// in place, or a stdlib image converted row by row into scratch.
type rowSource struct {
	w, h   int
	planes []*imgplane.Plane
	std    *imgplane.StdRowReader
}

func (s *rowSource) channels() int {
	if s.std != nil {
		return 3
	}
	return len(s.planes)
}

// bandRows holds one block row's sample rows: bandRows[c][r] is row r of
// component c, at least w samples long.
type bandRows [3][dct.BlockSize][]float32

// fill points rows at the eight sample rows of block row by, replicating
// the last image row below the bottom edge. scratch backs the converted
// rows of a stdlib source (3*8*w samples).
func (s *rowSource) fill(rows *bandRows, by int, scratch []float32) {
	w := s.w
	for r := 0; r < dct.BlockSize; r++ {
		y := by*dct.BlockSize + r
		switch {
		case y >= s.h:
			// r > 0 here: block row by starts inside the image.
			for c := range rows {
				rows[c][r] = rows[c][r-1]
			}
		case s.std != nil:
			o := 3 * r * w
			yy, uu, vv := scratch[o:o+w], scratch[o+w:o+2*w], scratch[o+2*w:o+3*w]
			s.std.ReadRow(y, yy, uu, vv)
			rows[0][r], rows[1][r], rows[2][r] = yy, uu, vv
		default:
			for c, p := range s.planes {
				rows[c][r] = p.Pix[y*w : (y+1)*w]
			}
		}
	}
}

// forwardImage quantizes every component of src: component 0 with lum,
// the others with chrom. Block grids come from the slab pool, so owners
// may Recycle the result.
func forwardImage(src *rowSource, lum, chrom *dct.QuantTable) *Image {
	m := &Image{W: src.w, H: src.h, Comps: make([]Component, src.channels())}
	lumK := dct.NewForwardQuantizer(lum, ACMin)
	chromK := lumK
	if len(m.Comps) > 1 {
		chromK = dct.NewForwardQuantizer(chrom, ACMin)
	}
	ks := [3]*dct.ForwardQuantizer{lumK, chromK, chromK}
	for ci := range m.Comps {
		q := chrom
		if ci == 0 {
			q = lum
		}
		m.Comps[ci] = newForwardComponent(src.w, src.h, q)
	}
	forwardComponents(src, ks[:len(m.Comps)], m.Comps)
	return m
}

// newForwardComponent returns a 1x1-sampled component whose grid covers
// w x h pixels, with uninitialized pooled blocks the forward pass fills.
func newForwardComponent(w, h int, q *dct.QuantTable) Component {
	bw, bh := blocksFor(w), blocksFor(h)
	return Component{BlocksW: bw, BlocksH: bh, Blocks: getBlockSlabUncleared(bw * bh), Quant: *q}
}

// forwardComponents runs the band kernel: comps[c] is quantized with ks[c]
// from channel c of src. Block rows are independent: each worker owns its
// row views and scratch and writes a disjoint slice of every grid.
func forwardComponents(src *rowSource, ks []*dct.ForwardQuantizer, comps []Component) {
	bh := comps[0].BlocksH
	parallel.For(bh, blockRowGrain, func(lo, hi int) {
		var rows bandRows
		var scratch []float32
		if src.std != nil {
			buf := getRowScratch(3 * dct.BlockSize * src.w)
			defer putRowScratch(buf)
			scratch = *buf
		}
		for by := lo; by < hi; by++ {
			src.fill(&rows, by, scratch)
			for c := range comps {
				quantizeBand(&rows[c], src.w, by, ks[c], &comps[c])
			}
		}
	})
}

// quantizeBand transforms and quantizes block row by of one component from
// its eight sample rows (w samples each).
func quantizeBand(rows *[dct.BlockSize][]float32, w, by int, k *dct.ForwardQuantizer, comp *Component) {
	var spatial dct.FloatBlock
	out := comp.Blocks[by*comp.BlocksW : (by+1)*comp.BlocksW]
	interior := w / dct.BlockSize
	for bx := range out {
		x0 := bx * dct.BlockSize
		if bx < interior {
			for r := 0; r < dct.BlockSize; r++ {
				src := rows[r][x0 : x0+dct.BlockSize : x0+dct.BlockSize]
				dst := spatial[r*dct.BlockSize : (r+1)*dct.BlockSize : (r+1)*dct.BlockSize]
				for x, v := range src {
					dst[x] = float64(v) - 128
				}
			}
		} else {
			// Right-edge block: replicate the last column.
			for r := 0; r < dct.BlockSize; r++ {
				row := rows[r]
				for x := 0; x < dct.BlockSize; x++ {
					spatial[r*dct.BlockSize+x] = float64(row[min(x0+x, w-1)]) - 128
				}
			}
		}
		k.Quantize(&spatial, &out[bx])
	}
}
