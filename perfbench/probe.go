package main

import (
	"bytes"
	"image"
	"image/color"
	"image/jpeg"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on lends its CPUs to other tenants, and how
// much they take changes from minute to minute: a fixed loop ran 60% slower
// at some times than at others, which moved every latency of a run with it.
// So the timed phase stops about once a second (probeEvery of load at the
// workload's nominal rate) and times a fixed piece of work, the probe, and
// the run reports its times scaled to a host on which the probe takes
// probeRef. A change to the program moves the scaled times as it moves the
// measured ones; a busier host moves the probe too and cancels out.

// probeEvery is how long, at a workload's nominal rate, the timed phase
// runs between two probes.
const probeEvery = time.Second

// probeRef is the probe time the scaled times are reported at: about the
// probe's median on the reference host (Intel Xeon, 2 vCPUs) when lightly
// loaded.
const probeRef = 60 * time.Millisecond

// probeImage is the probe's fixed input: a 1024x768 gradient, 3 MiB of
// pixels, so the probe streams through memory as the workloads do.
var probeImage = func() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, 1024, 768))
	for y := 0; y < 768; y++ {
		for x := 0; x < 1024; x++ {
			img.SetRGBA(x, y, color.RGBA{uint8(x ^ y), uint8(x*3 + y), uint8(y * 5), 255})
		}
	}
	return img
}()

// probeBufs are the probe workers' output buffers, reused so the probe
// allocates almost nothing and the heap the program left behind does not
// slow it.
var probeBufs = func() []*bytes.Buffer {
	out := make([]*bytes.Buffer, clients)
	for i := range out {
		out[i] = bytes.NewBuffer(make([]byte, 0, 1<<20))
	}
	return out
}()

// probeHost times the probe on workers goroutines (at most clients), each
// running three standard-library JPEG encodes of probeImage: code the
// program under test does not share, so no change to the program moves it.
// It runs while the load is paused.
func probeHost(workers int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := probeBufs[w]
			for k := 0; k < 3; k++ {
				buf.Reset()
				_ = jpeg.Encode(buf, probeImage, &jpeg.Options{Quality: 85}) // an in-memory encode of a valid image cannot fail
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// hostScale is probeRef over the run's median probe time: the factor that
// scales the run's times to the reference host's speed.
func hostScale(probes []time.Duration) float64 {
	p := append([]time.Duration(nil), probes...)
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	return float64(probeRef) / float64(p[len(p)/2])
}
