package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"puppies/internal/admission"
	"puppies/internal/cluster"
	"puppies/internal/psp"
)

// numShards is the shipped topology: pspgw in front of three pspd shards.
const numShards = 3

// liveCluster is pspgw in front of numShards pspd shards, in this process,
// on loopback listeners, with default settings: R=3, W=2, default
// admission, caches and hedging, MemStore, no faults.
type liveCluster struct {
	url    string
	gw     *cluster.Gateway
	shards []*psp.Server

	servers []*http.Server
	serving sync.WaitGroup
	cancel  context.CancelFunc
}

// startCluster boots the cluster. With a tracer it installs the timing
// wrappers: around each shard's store and handler, around the gateway's
// handler, and on the gateway's shard transport (which adds the op ID
// header and otherwise is http.DefaultTransport, the gateway's default).
func startCluster(tr *tracer) (*liveCluster, error) {
	c := &liveCluster{}
	urls := make([]string, 0, numShards)
	for k := 0; k < numShards; k++ {
		var store psp.Store = psp.NewMemStore()
		if tr != nil {
			store = tracedStore{Store: store, tr: tr, shard: k}
		}
		s := psp.NewServerWith(store)
		var h http.Handler = s.Handler()
		if tr != nil {
			h = tr.shardHandler(k, h)
		}
		addr, err := c.serve(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.shards = append(c.shards, s)
		urls = append(urls, "http://"+addr)
	}
	cfg := cluster.Config{Shards: urls}
	if tr != nil {
		cfg.Transport = opTransport{base: http.DefaultTransport}
	}
	gw, err := cluster.New(cfg)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("gateway: %w", err)
	}
	c.gw = gw
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	gw.Start(ctx)
	var h http.Handler = gw.Handler()
	if tr != nil {
		h = tr.gatewayHandler(h)
	}
	addr, err := c.serve(h)
	if err != nil {
		c.close()
		return nil, err
	}
	c.url = "http://" + addr
	return c, nil
}

func (c *liveCluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve %s: %v\n", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}

// close stops the probes and every listener, and waits for the servers.
func (c *liveCluster) close() {
	if c.cancel != nil {
		c.cancel()
	}
	for _, s := range c.servers {
		_ = s.Close() // close errors only repeat listener errors already seen
	}
	c.serving.Wait()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// clusterStats is the statz of the gateway and every shard at one instant.
type clusterStats struct {
	gw     cluster.Statz
	shards []psp.StatzResponse
}

func (c *liveCluster) stats() clusterStats {
	st := clusterStats{gw: c.gw.Stats()}
	for _, s := range c.shards {
		st.shards = append(st.shards, s.Statz())
	}
	return st
}

// statDelta is what the cluster counted between two snapshots.
type statDelta struct {
	shardRequests, hedges, failovers, divergences uint64
	admitted, shed                                uint64
	variantHits, variantMisses                    uint64
	coeffHits, coeffMisses                        uint64
	transforms, decodes, collapsed, evictions     uint64
	searchQueries                                 uint64
}

func delta(a, b clusterStats) statDelta {
	var d statDelta
	for u, s := range b.gw.Shards {
		d.shardRequests += s.Requests - a.gw.Shards[u].Requests
	}
	d.hedges = b.gw.Hedges - a.gw.Hedges
	d.failovers = b.gw.Failovers - a.gw.Failovers
	d.divergences = b.gw.Divergences - a.gw.Divergences
	adm := func(x, y admission.Stats) {
		d.admitted += y.Admitted - x.Admitted
		d.shed += y.Sheds() - x.Sheds()
	}
	adm(a.gw.Admission, b.gw.Admission)
	for k := range b.shards {
		x, y := a.shards[k], b.shards[k]
		adm(x.Admission, y.Admission)
		d.variantHits += y.Variants.Hits - x.Variants.Hits
		d.variantMisses += y.Variants.Misses - x.Variants.Misses
		d.coeffHits += y.Coeffs.Hits - x.Coeffs.Hits
		d.coeffMisses += y.Coeffs.Misses - x.Coeffs.Misses
		d.transforms += y.TransformsComputed - x.TransformsComputed
		d.decodes += y.DecodesComputed - x.DecodesComputed
		d.collapsed += (y.CollapsedTransforms + y.CollapsedDecodes) - (x.CollapsedTransforms + x.CollapsedDecodes)
		d.evictions += (y.Variants.Evictions + y.Coeffs.Evictions) - (x.Variants.Evictions + x.Coeffs.Evictions)
		d.searchQueries += y.Search.Queries - x.Search.Queries
	}
	return d
}
