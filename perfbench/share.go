package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"puppies/internal/core"
	"puppies/internal/jpegc"
	"puppies/internal/keys"
	"puppies/internal/psp"
)

// share is the write path: closed loop, `clients` senders. Each op protects
// the next photo and uploads it with psp.Client.Upload; it ends at the
// gateway's quorum ack. Photos alternate between pixel sources
// (puppies.Protect) and 4:2:0 camera JPEGs (puppies.ProtectJPEG, native
// subsampled path), mixing VariantZ+TransformSupport and VariantC.
type shareLoad struct {
	pool   []*shareSource
	client *psp.Client

	mu      sync.Mutex
	uploads []shareUpload
}

const (
	sharePoolSize = 60 // distinct source photos; ops cycle through them
	shareWarmOps  = 6
	shareLimit    = 600 * time.Millisecond
	// shareRate sizes the timed phase: about the two-sender closed-loop
	// rate of the reference host, in ops per second.
	shareRate = 30.0
	// shareCheckOps timed ops per protection kind are re-protected through
	// the other path (layered or composite) after timing, which must give
	// the same bytes.
	shareCheckOps = 4
)

type shareSource struct {
	photo  *photo
	camera []byte
}

// shareUpload is one acknowledged upload and the bytes it must read back as.
type shareUpload struct {
	op         int
	id         string
	jpegSum    [32]byte
	paramsSum  [32]byte
	layeredRun bool
}

func (s *shareLoad) limit() time.Duration { return shareLimit }

// class is the pool photo: its ops differ only in their keys.
func (s *shareLoad) class(_ *bench, i int) string { return fmt.Sprint(i % len(s.pool)) }

func (s *shareLoad) setup(b *bench) error {
	// Every pool photo has a scene of its own: a scene's region layout
	// decides whether ProtectJPEG keeps native 4:2:0 or normalizes, which
	// changes an op's cost, so shared scenes would make a run's cost hang
	// on a few layouts.
	scenes, err := genScenes(b, sceneKinds(kindPattern[:], sharePoolSize))
	if err != nil {
		return err
	}
	s.pool = make([]*shareSource, sharePoolSize)
	if err := b.setupPhase("photos", sharePoolSize, func(i int) error {
		src := &shareSource{photo: derivePhoto(scenes[i], i, b.cfg.seed)}
		if protectionFor(i).fromCamera {
			cam, err := src.photo.cameraJPEG()
			if err != nil {
				return err
			}
			src.camera = cam
		}
		s.pool[i] = src
		return nil
	}); err != nil {
		return err
	}
	s.client = &psp.Client{BaseURL: b.cl.url, HTTPClient: b.client}
	return nil
}

// opInput is op i's photo: a pool photo under keys of its own, so every
// upload is a distinct protected image.
func (s *shareLoad) opInput(b *bench, i int) (*photo, protection, []byte) {
	src := s.pool[i%len(s.pool)]
	p := *src.photo
	p.keys = make([]*keys.Pair, len(p.keys))
	for r := range p.keys {
		p.keys[r] = keys.NewPairDeterministic(int64(mix64(uint64(b.cfg.seed)+1, uint64(i)<<8|uint64(r)) >> 1))
	}
	return &p, protectionFor(i % len(s.pool)), src.camera
}

func (s *shareLoad) op(b *bench, i int, sp *opSpans) error {
	p, pr, camera := s.opInput(b, i)
	var prot *protected
	var err error
	if sp != nil {
		prot, err = protectLayered(sp, p, pr, camera, false)
	} else {
		prot, err = protectComposite(p, pr, camera)
	}
	if err != nil {
		return fmt.Errorf("protect: %w", err)
	}
	// psp.Client.Upload takes decoded images, so the sender decodes what
	// Protect just encoded; Upload encodes it again.
	var img *jpegc.Image
	if err := sp.do("jpegc.decode", func() (err error) {
		img, err = jpegc.Decode(bytes.NewReader(prot.jpeg))
		return err
	}); err != nil {
		return err
	}
	var pd *core.PublicData
	if err := sp.do("core.params", func() (err error) {
		pd, err = core.DecodePublicData(prot.params)
		return err
	}); err != nil {
		return err
	}
	var id string
	if err := sp.do("psp.client", func() (err error) {
		id, err = s.client.Upload(sp.context(), img, pd, jpegc.EncodeOptions{Tables: jpegc.TablesOptimized})
		return err
	}); err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	s.mu.Lock()
	s.uploads = append(s.uploads, shareUpload{op: i, id: id, jpegSum: sha256.Sum256(prot.jpeg),
		paramsSum: sha256.Sum256(prot.params), layeredRun: sp != nil})
	s.mu.Unlock()
	return nil
}

func (s *shareLoad) warm(b *bench) int {
	b.warmup(shareWarmOps, func(i int) error { return s.op(b, i, nil) })
	s.uploads = nil
	return shareWarmOps
}

func (s *shareLoad) measure(b *bench, first int) timed {
	return b.closedLoop(first, len(s.pool), shareRate, func(i int, sp *opSpans) (func(), error) { return nil, s.op(b, i, sp) })
}

// verify reads every acknowledged upload back through the gateway and
// requires the exact bytes Protect produced; then it re-protects the first
// few ops of each protection kind through the other path and requires the
// same bytes again.
func (s *shareLoad) verify(b *bench) int {
	bad := map[int]bool{}
	var mu sync.Mutex
	forEach(len(s.uploads), func(i int) {
		u := s.uploads[i]
		img, err1 := b.get(nil, "/v1/images/"+u.id)
		params, err2 := b.get(nil, "/v1/images/"+u.id+"/params")
		switch {
		case err1 != nil || err2 != nil:
			b.mismatch("share op %d: read back %s: %v %v", u.op, u.id, err1, err2)
		case sha256.Sum256(img) != u.jpegSum:
			b.mismatch("share op %d: image %s reads back %d bytes that differ from the protected JPEG", u.op, u.id, len(img))
		case sha256.Sum256(params) != u.paramsSum:
			b.mismatch("share op %d: params of %s read back %d bytes that differ from the protected params", u.op, u.id, len(params))
		default:
			return
		}
		mu.Lock()
		bad[u.op] = true
		mu.Unlock()
	})
	checked := map[protection]int{}
	var sample []shareUpload
	for _, u := range s.uploads {
		pr := protectionFor(u.op % len(s.pool))
		if checked[pr] < shareCheckOps {
			checked[pr]++
			sample = append(sample, u)
		}
	}
	forEach(len(sample), func(i int) {
		u := sample[i]
		p, pr, camera := s.opInput(b, u.op)
		var other *protected
		var err error
		if u.layeredRun {
			other, err = protectComposite(p, pr, camera)
		} else {
			other, err = protectLayered(nil, p, pr, camera, false)
		}
		if err == nil && (sha256.Sum256(other.jpeg) != u.jpegSum || sha256.Sum256(other.params) != u.paramsSum) {
			err = fmt.Errorf("layered and composite protect differ (%s, camera=%v)", pr.variant, pr.fromCamera)
		}
		if err != nil {
			b.mismatch("share op %d: decomposition check: %v", u.op, err)
			mu.Lock()
			bad[u.op] = true
			mu.Unlock()
		}
	})
	return len(bad)
}

// clientRetries counts the retries of the workload's psp.Client; only share
// uploads through one, the other workloads send raw GETs.
func clientRetries(w workload) uint64 {
	if s, ok := w.(*shareLoad); ok {
		return s.client.Stats().Retries
	}
	return 0
}

func (s *shareLoad) replay(*bench) map[string]float64 { return nil }
