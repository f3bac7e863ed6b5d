package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/store"
)

// Hooks observes cluster events for wiring into a metrics registry.
// Every field may be nil; callbacks run on request goroutines.
type Hooks struct {
	// OnPeerRequest fires once per peer RPC attempt with the peer id and
	// an outcome of "ok", "error", "timeout" or "open" (refused by the
	// peer's circuit breaker without an attempt).
	OnPeerRequest func(peer, outcome string)
	// OnRetry fires when a failed peer fetch is retried.
	OnRetry func(peer string)
	// OnHedge fires when a slow peer fetch gets a hedged duplicate.
	OnHedge func(peer string)
	// OnFilled fires after a degraded region read with the number of
	// chunks that had to be filled.
	OnFilled func(chunks int)
	// OnFailover fires when chunks are served by a replica other than
	// their primary owner (the read survived a peer, but not unscathed).
	OnFailover func(chunks int)
	// OnBreakerOpen fires when a peer's circuit breaker opens after
	// consecutive failures.
	OnBreakerOpen func(peer string)
	// OnScrubRun fires once per anti-entropy scrub pass.
	OnScrubRun func()
	// OnScrubDamaged fires per scrub pass with the number of owned chunks
	// found missing or damaged locally.
	OnScrubDamaged func(chunks int)
	// OnScrubRepaired fires per scrub pass with the number of chunks
	// re-fetched intact from replicas.
	OnScrubRepaired func(chunks int)
}

// Config describes one node's view of the cluster. Every node runs with
// the same roster; Self selects which entry is this process.
type Config struct {
	// Self is this node's peer id. Must be a key of Peers.
	Self string
	// Peers maps peer id to base URL (scheme://host:port), including
	// this node's own entry. The roster is static per process.
	Peers map[string]string
	// VirtualNodes per peer on the ring (0 = DefaultVirtualNodes).
	VirtualNodes int
	// Timeout bounds one peer fetch attempt (0 = 2s).
	Timeout time.Duration
	// HedgeAfter launches a duplicate fetch if the primary has not
	// completed in this long (0 = 250ms; negative disables hedging).
	HedgeAfter time.Duration
	// Retries is how many additional attempts a failed peer fetch gets
	// (0 = 1; negative disables retries).
	Retries int
	// Replicas is how many distinct peers own each chunk (0 =
	// DefaultReplicas; clamped to the roster size). With Replicas > 1 a
	// single peer death costs no data: reads fail over to the next
	// replica in ring order and stay bit-identical and non-degraded.
	Replicas int
	// Client is the HTTP client for peer RPCs (nil = a client over the
	// shared pooled transport; timeouts come from contexts, not the
	// client).
	Client *http.Client
	// Hooks observes peer traffic (metrics).
	Hooks Hooks
}

// DefaultReplicas is the replica count used when Config.Replicas is 0:
// two copies of every chunk, so any single disk or node loss is
// survivable without degradation.
const DefaultReplicas = 2

// Cluster coordinates a sharded volume namespace: it slices ingested
// containers across the peer roster by consistent hashing, and gathers
// region reads back chunk-by-chunk, degrading to a fill value when a
// peer cannot answer. All methods are safe for concurrent use.
type Cluster struct {
	self       string
	peers      map[string]string // id -> base URL, no trailing slash
	order      []string          // sorted peer ids
	ring       *Ring
	st         *store.Store
	client     *http.Client
	timeout    time.Duration
	hedgeAfter time.Duration
	retries    int
	replicas   int
	hooks      Hooks

	brMu     sync.Mutex
	breakers map[string]*breaker
}

// New validates the roster and builds the ring. The store holds this
// node's shards; it must outlive the cluster.
func New(cfg Config, st *store.Store) (*Cluster, error) {
	if st == nil {
		return nil, fmt.Errorf("cluster: requires a volume store")
	}
	if len(cfg.Peers) < 2 {
		return nil, fmt.Errorf("cluster: roster needs at least 2 peers (got %d)", len(cfg.Peers))
	}
	if _, ok := cfg.Peers[cfg.Self]; !ok {
		return nil, fmt.Errorf("cluster: self id %q not in peer roster", cfg.Self)
	}
	c := &Cluster{
		self:       cfg.Self,
		peers:      make(map[string]string, len(cfg.Peers)),
		st:         st,
		client:     cfg.Client,
		timeout:    cfg.Timeout,
		hedgeAfter: cfg.HedgeAfter,
		retries:    cfg.Retries,
		replicas:   cfg.Replicas,
		hooks:      cfg.Hooks,
		breakers:   make(map[string]*breaker),
	}
	for id, u := range cfg.Peers {
		u = strings.TrimRight(u, "/")
		if id != cfg.Self && !strings.Contains(u, "://") {
			return nil, fmt.Errorf("cluster: peer %q URL %q has no scheme", id, u)
		}
		c.peers[id] = u
		c.order = append(c.order, id)
	}
	sort.Strings(c.order)
	ring, err := NewRing(c.order, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	c.ring = ring
	if c.client == nil {
		c.client = sharedClient
	}
	if c.timeout <= 0 {
		c.timeout = 2 * time.Second
	}
	if c.hedgeAfter == 0 {
		c.hedgeAfter = 250 * time.Millisecond
	}
	if c.retries == 0 {
		c.retries = 1
	}
	if c.retries < 0 {
		c.retries = 0
	}
	if c.replicas == 0 {
		c.replicas = DefaultReplicas
	}
	if c.replicas < 0 {
		c.replicas = 1
	}
	if c.replicas > len(c.order) {
		c.replicas = len(c.order)
	}
	return c, nil
}

// Self returns this node's peer id.
func (c *Cluster) Self() string { return c.self }

// Ring exposes the placement ring (scripts compute expected placement
// with it; it is immutable).
func (c *Cluster) Ring() *Ring { return c.ring }

// Owner returns the peer primarily owning chunk ci of volume id.
func (c *Cluster) Owner(id string, ci int) string {
	return c.ring.Owner(ChunkKey(id, ci))
}

// Owners returns the ordered replica set for chunk ci of volume id: the
// primary owner first, then the failover order reads follow.
func (c *Cluster) Owners(id string, ci int) []string {
	return c.ring.Owners(ChunkKey(id, ci), c.replicas)
}

// Replicas returns the effective per-chunk replica count.
func (c *Cluster) Replicas() int { return c.replicas }

func (c *Cluster) onPeerRequest(peer, outcome string) {
	if c.hooks.OnPeerRequest != nil {
		c.hooks.OnPeerRequest(peer, outcome)
	}
}

// Ingest shards a complete container across the roster: verify and
// address it once, slice one shard per peer along frame boundaries with
// each chunk's frames going to all of its replica owners, and ship each
// shard (the local one through the store, remote ones over the peer
// protocol, with retries). Every peer receives a shard even if it owns
// no chunks — the footer gives every node the volume's full geometry,
// so any node can coordinate reads. Ingest is all-or-nothing in its
// error report but idempotent in effect: shards are byte-stable for a
// given roster and the store merges re-ingested shards frame-by-frame,
// so retrying a partially failed ingest converges.
func (c *Cluster) Ingest(ctx context.Context, container []byte) (*store.Meta, bool, error) {
	id, info, err := store.AddressOf(container)
	if err != nil {
		return nil, false, err
	}
	if info.Version < 2 {
		// Unshardable input is the client's to fix (422), like any other
		// container the store cannot vouch for.
		return nil, false, fmt.Errorf("%w: cannot shard a v%d container (no index footer); repack with a current encoder", store.ErrCorrupt, info.Version)
	}
	placement := c.ring.PlacementReplicas(id, info.NumChunks, c.replicas)

	var (
		meta    *store.Meta
		created bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []error
	)
	for _, peer := range c.order {
		owned := make(map[int]bool, len(placement[peer]))
		for _, ci := range placement[peer] {
			owned[ci] = true
		}
		shard, err := sperr.SliceShard(container, func(ci int) bool { return owned[ci] })
		if err != nil {
			return nil, false, err
		}
		if peer == c.self {
			meta, created, err = c.st.PutShard(id, shard)
			if err != nil {
				return nil, false, err
			}
			continue
		}
		wg.Add(1)
		go func(peer string, shard []byte) {
			defer wg.Done()
			if err := c.shipShard(ctx, peer, id, shard); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
				mu.Unlock()
			}
		}(peer, shard)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, false, fmt.Errorf("cluster: ingest of %s incomplete: %w", id[:12], errors.Join(errs...))
	}
	return meta, created, nil
}

// Delete removes the volume's shard from every peer, local store
// included. A peer that has never seen the volume answers 404, which
// counts as success (delete is idempotent). Remote failures are
// aggregated but do not stop the local delete.
func (c *Cluster) Delete(ctx context.Context, id string) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for _, peer := range c.order {
		if peer == c.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if err := c.deleteShard(ctx, peer, id); err != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
				mu.Unlock()
			}
		}(peer)
	}
	err := c.st.Delete(id)
	wg.Wait()
	if err != nil {
		return err
	}
	if len(errs) > 0 {
		return fmt.Errorf("cluster: delete of %s incomplete: %w", shortID(id), errors.Join(errs...))
	}
	return nil
}

// ChunkPiece is one chunk's contribution to a region read: the
// intersection of the chunk's box with the requested region, in volume
// coordinates, samples x-fastest. Filled marks a chunk whose owner
// could not answer — Samples then carry the fill value.
type ChunkPiece struct {
	Index   int
	Origin  [3]int
	Dims    [3]int
	Samples []float64
	Filled  bool
}

// RegionReport summarizes a scatter-gather read.
type RegionReport struct {
	// Chunks is the number of chunks intersecting the region; Remote how
	// many were primarily owned by other peers.
	Chunks int
	Remote int
	// Skipped lists the chunk indices that degraded to fill, sorted.
	Skipped []int
	// FailedOver is how many chunks were served by a replica other than
	// their primary owner. A non-zero count with an empty Skipped list is
	// the replicated cluster absorbing a fault: the read stayed
	// bit-identical and non-degraded.
	FailedOver int
	// Unreachable lists the peers that failed every fetch directed at
	// them during this read, sorted. Empty for a clean read; named in the
	// degraded trailer so operators can see which node to look at.
	Unreachable []string
}

// RegionOptions tunes a scatter-gather read.
type RegionOptions struct {
	// Workers bounds concurrent local chunk decodes (<=0: 1).
	Workers int
	// Fill is the value written for chunks whose owner could not answer
	// (the salvage fill policy; NaN marks loss unambiguously).
	Fill float64
}

// Region performs a scatter-gather read: intersect the request box with
// the volume's chunk geometry (known locally — every shard carries the
// full footer), fan out to owning peers, and emit each chunk's
// intersection as it arrives. emit may be called concurrently; each
// intersecting chunk is emitted exactly once. Peer failure fails the
// affected chunks over to the next replica in ring order; only after
// every replica has been exhausted (across retries and hedging) does a
// chunk degrade to the fill value — with Replicas > 1 a single dead
// peer therefore costs nothing but latency, and the gathered bytes stay
// identical to a single-node decode. The read itself only fails for a
// local reason (unknown volume, bad box, canceled context, or an emit
// error).
func (c *Cluster) Region(ctx context.Context, id string, origin, dims [3]int, opts RegionOptions, emit func(ChunkPiece) error) (*RegionReport, error) {
	meta, ok := c.st.Describe(id)
	if !ok {
		return nil, store.ErrNotFound
	}
	region := grid.Box{Origin: origin, Dims: dims}
	if !region.Within(meta.Dims) {
		return nil, fmt.Errorf("cluster: region %v+%v outside volume %v", origin, dims, meta.Dims)
	}

	var hits []chunkHit
	for i, cg := range meta.Chunks {
		if b, ok := region.Intersect(grid.Box(cg)); ok {
			hits = append(hits, chunkHit{index: i, box: b})
		}
	}
	rep := &RegionReport{Chunks: len(hits)}
	if len(hits) == 0 {
		return rep, nil
	}

	owners := make([][]string, len(hits))
	for i, h := range hits {
		owners[i] = c.Owners(id, h.index)
		if owners[i][0] != c.self {
			rep.Remote++
		}
	}

	sink := newChunkSink(emit)
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	sem := make(chan struct{}, workers)

	// Peers whose every fetch failed, minus those that later answered.
	var (
		peerMu    sync.Mutex
		failedPrs = make(map[string]bool)
		okPrs     = make(map[string]bool)
	)
	markPeer := func(peer string, ok bool) {
		peerMu.Lock()
		if ok {
			okPrs[peer] = true
		} else {
			failedPrs[peer] = true
		}
		peerMu.Unlock()
	}

	// The failover sweep: rank 0 asks each missing chunk's primary owner,
	// rank r its r-th replica, grouping chunks by peer so one RPC carries
	// a peer's whole batch. Each full sweep is one attempt; failed chunks
	// get retried sweeps with capped backoff before degrading to fill.
	backoff := 50 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
sweep:
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				break sweep
			}
			if backoff *= 2; backoff > backoffCap {
				backoff = backoffCap
			}
		}
		for rank := 0; rank < c.replicas; rank++ {
			groups := make(map[string][]chunkHit)
			for i, h := range hits {
				if sink.has(h.index) {
					continue
				}
				if rank < len(owners[i]) {
					groups[owners[i][rank]] = append(groups[owners[i][rank]], h)
				}
			}
			if len(groups) == 0 {
				break sweep
			}
			var wg sync.WaitGroup
			for peer, hs := range groups {
				wg.Add(1)
				if peer == c.self {
					go func(hs []chunkHit) {
						defer wg.Done()
						c.decodeLocal(ctx, id, hs, sem, sink)
					}(hs)
					continue
				}
				go func(peer string, hs []chunkHit) {
					defer wg.Done()
					if attempt > 0 && c.hooks.OnRetry != nil {
						c.hooks.OnRetry(peer)
					}
					markPeer(peer, c.fetchGuarded(ctx, peer, id, region, hs, sink))
				}(peer, hs)
			}
			wg.Wait()
			if rank > 0 {
				// Anything a non-primary rank delivered is a failover save.
				for _, hs := range groups {
					for _, h := range hs {
						if sink.has(h.index) {
							rep.FailedOver++
						}
					}
				}
			}
			if ctx.Err() != nil {
				break sweep
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sink.emitErr(); err != nil {
		return nil, err
	}

	for peer := range failedPrs {
		if !okPrs[peer] {
			rep.Unreachable = append(rep.Unreachable, peer)
		}
	}
	sort.Strings(rep.Unreachable)
	if rep.FailedOver > 0 && c.hooks.OnFailover != nil {
		c.hooks.OnFailover(rep.FailedOver)
	}

	// Whatever is still missing degrades to the fill value — the cluster
	// analogue of the salvage fill policy.
	for _, h := range hits {
		if sink.has(h.index) {
			continue
		}
		rep.Skipped = append(rep.Skipped, h.index)
		buf := make([]float64, h.box.Len())
		if opts.Fill != 0 || math.IsNaN(opts.Fill) {
			for i := range buf {
				buf[i] = opts.Fill
			}
		}
		sink.deliver(h.piece(buf, true))
	}
	sort.Ints(rep.Skipped)
	if len(rep.Skipped) > 0 && c.hooks.OnFilled != nil {
		c.hooks.OnFilled(len(rep.Skipped))
	}
	if err := sink.emitErr(); err != nil {
		return nil, err
	}
	return rep, nil
}

// decodeLocal serves chunk hits from this node's own shard, bounded by
// the worker semaphore. A chunk whose local frame is damaged or stubbed
// simply stays undelivered — the failover sweep asks its next replica.
func (c *Cluster) decodeLocal(ctx context.Context, id string, hs []chunkHit, sem chan struct{}, sink *chunkSink) {
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h chunkHit) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			data, _, err := c.st.Region(ctx, id, h.box.Origin, h.box.Dims, 1)
			if err != nil {
				return
			}
			sink.deliver(h.piece(data, false))
		}(h)
	}
	wg.Wait()
}

// fetchGuarded runs one hedged fetch attempt against a peer behind its
// circuit breaker: an open breaker refuses immediately (outcome "open")
// so the sweep short-circuits to the chunk's next replica instead of
// burning a timeout on a peer that is almost certainly still down.
func (c *Cluster) fetchGuarded(ctx context.Context, peer, id string, region grid.Box, hs []chunkHit, sink *chunkSink) bool {
	br := c.breakerFor(peer)
	if !br.allow(time.Now()) {
		c.onPeerRequest(peer, "open")
		return false
	}
	if c.fetchHedged(ctx, peer, id, region, hs, sink) {
		br.success()
		return true
	}
	if br.failure(time.Now()) && c.hooks.OnBreakerOpen != nil {
		c.hooks.OnBreakerOpen(peer)
	}
	return false
}

// fetchHedged runs one (possibly duplicated) fetch attempt against a
// peer. If the primary has not completed within hedgeAfter, an
// identical request is launched alongside it; the sink deduplicates
// deliveries, so whichever connection produces a chunk first wins.
// Reports whether every requested chunk was delivered. Before it
// returns, the losing fetch is canceled and waited for: that fetch may
// be inside the sink's emit with a chunk it won, and the read must not
// finish while an emit is still writing into it.
func (c *Cluster) fetchHedged(ctx context.Context, peer, id string, region grid.Box, hs []chunkHit, sink *chunkSink) bool {
	cctx, cancel := context.WithTimeout(ctx, c.timeout)
	results := make(chan error, 2)
	inflight := 0
	defer func() {
		cancel()
		for ; inflight > 0; inflight-- {
			<-results
		}
	}()
	launch := func() {
		inflight++
		go func() { results <- c.fetchChunks(cctx, peer, id, region, hs, sink) }()
	}
	launch()
	var hedgeC <-chan time.Time
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	for {
		select {
		case err := <-results:
			inflight--
			if err == nil {
				return true
			}
			if inflight == 0 {
				return false
			}
		case <-hedgeC:
			hedgeC = nil
			if c.hooks.OnHedge != nil {
				c.hooks.OnHedge(peer)
			}
			launch()
		case <-cctx.Done():
			return false
		}
	}
}

// chunkHit is one chunk's intersection with the requested region.
type chunkHit struct {
	index int
	box   grid.Box
}

// piece wraps samples of the hit's box as the chunk's delivery.
func (h chunkHit) piece(samples []float64, filled bool) ChunkPiece {
	return ChunkPiece{Index: h.index, Origin: h.box.Origin, Dims: h.box.Dims, Samples: samples, Filled: filled}
}

// chunkSink deduplicates chunk deliveries across hedged and retried
// fetches: each chunk index is emitted exactly once, whichever source
// lands first.
type chunkSink struct {
	mu   sync.Mutex
	got  map[int]bool
	emit func(ChunkPiece) error
	err  error
}

func newChunkSink(emit func(ChunkPiece) error) *chunkSink {
	return &chunkSink{got: make(map[int]bool), emit: emit}
}

// deliver emits the piece unless its chunk was already delivered. The
// emit callback runs outside the sink lock (it serializes internally).
func (s *chunkSink) deliver(p ChunkPiece) {
	s.mu.Lock()
	if s.got[p.Index] {
		s.mu.Unlock()
		return
	}
	s.got[p.Index] = true
	s.mu.Unlock()
	if err := s.emit(p); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

func (s *chunkSink) has(ci int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.got[ci]
}

func (s *chunkSink) emitErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Intersect returns the intersection of box (ro, rd) with box (co, cd)
// as (origin, dims) and whether it is non-empty. Peers use it to clip
// each requested chunk against the region box.
func Intersect(ro, rd, co [3]int, cd [3]int) (o, d [3]int, ok bool) {
	b, ok := grid.Box{Origin: ro, Dims: rd}.Intersect(grid.Box{Origin: co, Dims: cd})
	return b.Origin, b.Dims, ok
}

// shortID abbreviates a content address for error messages.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
