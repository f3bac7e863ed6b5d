package main

// The traced run's layer ladder: every layer's public functions timed on
// the workload's own inputs, so each layer's share of the end-to-end
// time can be read off. Spans are recorded from the benchmark's side of
// each call; per-layer times are span self times. A layer the workload
// itself does not reach (the server for pipeline-miranda, the cluster
// for node-region-hot) is probed on a short-lived instance holding the
// workload's own container; those figures describe the layer, not the
// workload's end-to-end numbers.

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sperr"
	"sperr/internal/cluster"
	"sperr/internal/store"
)

const (
	// ladderEncodes is how many traced encodes the codec ladder averages
	// the pipeline's own stage timers over.
	ladderEncodes = 3
	// streamTries is how many encode/decode pairs the streaming probe
	// takes the median of: a collection between tries empties the
	// engine's scratch pools, so single tries differ.
	streamTries = 5
	// ladderProbeReads is how many boxes each service probe reads; each
	// is read once over HTTP and once through the layer's Go API.
	ladderProbeReads = 16
	// ladderCycles is how many ingests each write probe times.
	ladderCycles = 3
)

// streamProbe measures the streaming engine's allocation and in-flight
// memory on an encode and a decode of the workload's volume, while
// nothing else runs.
func streamProbe(field []float64, container []byte, chunkEdge int, o *outcome) (decodeWall time.Duration, err error) {
	var encB, decB, decN, walls []float64
	peak := 0
	var ms0, ms1 runtime.MemStats
	for i := 0; i < streamTries; i++ {
		runtime.ReadMemStats(&ms0)
		_, _, ep, err := encodeStream(field, chunkEdge, nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, err
		}
		encB = append(encB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, dp, err := decodeStream(container, nil)
		w := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, err
		}
		decB = append(decB, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		decN = append(decN, float64(ms1.Mallocs-ms0.Mallocs))
		walls = append(walls, float64(w))
		peak = max(peak, ep, dp)
	}
	pts := float64(len(field))
	o.set("stream.enc_alloc_bytes_per_point", "bytes/point", median(encB)/pts)
	o.set("stream.dec_alloc_bytes_per_point", "bytes/point", median(decB)/pts)
	o.set("stream.dec_allocs", "count", median(decN))
	o.set("stream.peak_inflight_bytes", "bytes", float64(peak*8))
	return time.Duration(median(walls)), nil
}

// codecLadder times traced encodes of the workload's volume, replays its
// chunks stage by stage and probes the streaming engine, then reports
// the codec, chunk and stream metrics.
func codecLadder(tr *tracer, o *outcome, field []float64, container []byte, chunkEdge int) error {
	var stats *sperr.Stats
	var critical []float64
	for i := 0; i < ladderEncodes; i++ {
		c, st, _, err := encodeStream(field, chunkEdge, tr)
		if err != nil {
			return err
		}
		if !bytes.Equal(c, container) {
			o.fail("traced encode differs from the untraced stream")
		}
		stats = st
		critical = append(critical, ms(st.MaxChunkTime))
	}
	if err := replayVolume(tr, field, container, tol); err != nil {
		o.fail("codec replay: %v", err)
		return nil
	}
	decWall, err := streamProbe(field, container, chunkEdge, o)
	if err != nil {
		return err
	}
	an := tr.analyze()
	o.set("wavelet.fwd_ms", "ms", an.selfMs("wavelet.fwd", 1))
	o.set("speck.enc_ms", "ms", an.selfMs("speck.enc", 1))
	o.set("codec.locate_ms", "ms", an.selfMs("codec.locate", 1))
	o.set("outlier.enc_ms", "ms", an.selfMs("outlier.enc", 1))
	o.set("lossless.enc_ms", "ms", an.selfMs("lossless.enc", 1))
	encodes := an.count["stream.encode"]
	o.set("codec.enc_other_ms", "ms", an.selfMs("codec.chunk", encodes))
	o.set("lossless.dec_ms", "ms", an.selfMs("lossless.dec", 1))
	o.set("speck.dec_ms", "ms", an.selfMs("speck.dec", 1))
	o.set("wavelet.inv_ms", "ms", an.selfMs("wavelet.inv", 1))
	o.set("outlier.dec_ms", "ms", an.selfMs("outlier.dec", 1))
	o.set("codec.dec_other_ms", "ms", an.selfMs("codec.dec", 1))
	o.set("speck.replay_ratio", "ratio", ratio(an.selfMs("speck.enc", 1), an.selfMs("pipe.speck", encodes)))
	o.set("speck.bits", "bits", float64(stats.SpeckBits))
	o.set("outlier.bits", "bits", float64(stats.OutlierBits))
	o.set("outlier.count", "count", float64(stats.NumOutliers))
	o.set("chunk.enc_critical_ms", "ms", median(critical))
	workers := float64(runtime.NumCPU())
	var chunkWall float64
	for _, n := range []string{"codec.chunk", "pipe.transform", "pipe.speck", "pipe.locate", "pipe.outlier"} {
		chunkWall += an.selfMs(n, encodes)
	}
	o.set("chunk.enc_parallel_eff", "ratio", ratio(chunkWall, workers*ms(an.total["stream.encode"])/float64(encodes)))
	replayDec := ms(an.self["codec.dec"] + an.self["lossless.dec"] + an.self["speck.dec"] + an.self["wavelet.inv"] + an.self["outlier.dec"])
	o.set("chunk.dec_parallel_eff", "ratio", ratio(replayDec, workers*ms(decWall)))
	return nil
}

// serviceTimes are the per-read times of one service probe, in ms: an
// HTTP read and a direct layer call on the same box, pair by pair.
type serviceTimes struct{ http, layer []float64 }

// self is the median over boxes of the HTTP time minus the layer time.
func (s serviceTimes) self() float64 {
	d := make([]float64, min(len(s.http), len(s.layer)))
	for i := range d {
		d[i] = s.http[i] - s.layer[i]
	}
	return median(d)
}

func mean(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return ratio(t, float64(len(v)))
}

// purge empties every peer's decoded-slab cache, so a cold probe read
// decodes the way the cold workload's reads mostly do.
func (s *service) purge() {
	for _, p := range s.peers {
		p.s.Store().Cache().Purge()
	}
}

// nodeProbe reads each box over HTTP and then through store.Region on
// the same node; the difference is the server's own time per read.
func nodeProbe(tr *tracer, svc *service, id string, boxes []box, cold bool, o *outcome) serviceTimes {
	var st serviceTimes
	var buf bytes.Buffer
	st0 := svc.peers[0].s.Store()
	for _, b := range boxes {
		if cold {
			svc.purge()
		}
		req := tr.request()
		top := tr.begin("server.node", 0, req)
		t0 := time.Now()
		rep, err := svc.region(0, id, b, &buf, tr, top, req)
		st.http = append(st.http, ms(time.Since(t0)))
		tr.end(top)
		if err != nil || rep.status != 200 {
			o.fail("node probe read %s: status %d, %v", b.spec(), rep.status, err)
			continue
		}
		if cold {
			svc.purge()
		}
		id2 := tr.begin("store.region", 0, req)
		t0 = time.Now()
		_, _, err = st0.Region(context.Background(), id, b.o, b.d, runtime.NumCPU())
		st.layer = append(st.layer, ms(time.Since(t0)))
		tr.end(id2)
		if err != nil {
			o.fail("store probe read %s: %v", b.spec(), err)
		}
	}
	return st
}

// clusterProbe reads each box over HTTP through a rotating coordinator
// and then through cluster.Region on the same coordinator. It also times
// the store's share of the read (store.Region on each chunk's primary
// owner, summed) and counts the peer fetches the direct reads made.
func clusterProbe(tr *tracer, svc *service, id string, boxes []box, cold bool, o *outcome) (st serviceTimes, storeMs []float64) {
	var buf bytes.Buffer
	var chunks, remote, failover int
	before := peerFetches(svc)
	meta, _ := svc.peers[0].s.Store().Describe(id)
	for i, b := range boxes {
		c := i % len(svc.peers)
		if cold {
			svc.purge()
		}
		req := tr.request()
		top := tr.begin("server.cluster", 0, req)
		t0 := time.Now()
		rep, err := svc.region(c, id, b, &buf, tr, top, req)
		st.http = append(st.http, ms(time.Since(t0)))
		tr.end(top)
		if err != nil || rep.status != 200 || rep.trailer != "ok" {
			o.fail("cluster probe read %s: status %d trailer %q, %v", b.spec(), rep.status, rep.trailer, err)
			continue
		}
		if cold {
			svc.purge()
		}
		cid := tr.begin("cluster.region", 0, req)
		t0 = time.Now()
		rr, err := svc.peers[c].s.Cluster().Region(context.Background(), id, b.o, b.d,
			cluster.RegionOptions{Workers: runtime.NumCPU(), Fill: math.NaN()}, func(cluster.ChunkPiece) error { return nil })
		st.layer = append(st.layer, ms(time.Since(t0)))
		tr.end(cid)
		if err != nil || len(rr.Skipped) > 0 {
			o.fail("cluster.Region probe %s: %v", b.spec(), err)
			continue
		}
		chunks += rr.Chunks
		remote += rr.Remote
		failover += rr.FailedOver
		if meta == nil {
			continue
		}
		// The store's share: each intersecting chunk read from its
		// primary owner's store, as that peer's chunk handler does.
		if cold {
			svc.purge()
		}
		var t time.Duration
		for ci, cg := range meta.Chunks {
			ro, rd, ok := cluster.Intersect(b.o, b.d, cg.Origin, cg.Dims)
			if !ok {
				continue
			}
			owner := svc.peerIndex(svc.peers[0].s.Cluster().Owners(id, ci)[0])
			sid := tr.begin("store.region", 0, req)
			t0 = time.Now()
			_, _, err := svc.peers[owner].s.Store().Region(context.Background(), id, ro, rd, 1)
			t += time.Since(t0)
			tr.end(sid)
			if err != nil {
				o.fail("owner store read of chunk %d: %v", ci, err)
			}
		}
		storeMs = append(storeMs, ms(t))
	}
	after := peerFetches(svc)
	// Both the HTTP reads and the direct reads fetched from peers.
	n := float64(len(st.http) + len(st.layer))
	o.set("cluster.region_ms", "ms", mean(st.layer))
	o.set("cluster.remote_chunk_frac", "ratio", ratio(float64(remote), float64(chunks)))
	o.set("cluster.peer_fetches_per_read", "count", ratio(after.all-before.all, n))
	o.set("cluster.fetch_useful_frac", "ratio", ratio(after.ok-before.ok, after.all-before.all))
	o.set("cluster.failover_chunks", "count", float64(failover))
	return st, storeMs
}

func (s *service) peerIndex(nodeID string) int {
	for i, p := range s.peers {
		if p.s.Cluster().Self() == nodeID {
			return i
		}
	}
	return 0
}

type fetchCount struct{ all, ok float64 }

// peerFetches sums every peer's outgoing peer-RPC counters.
func peerFetches(svc *service) fetchCount {
	var f fetchCount
	for _, p := range svc.peers {
		for k, v := range p.s.Registry().Snapshot() {
			if !strings.HasPrefix(k, "sperrd_cluster_requests_total{") {
				continue
			}
			n, _ := v.(int64)
			f.all += float64(n)
			if strings.Contains(k, `outcome="ok"`) {
				f.ok += float64(n)
			}
		}
	}
	return f
}

// writeProbes times the write-side layer calls on container: a
// standalone store's Put, a cluster's Ingest (through svc's first peer),
// and the shard slicing and merging an ingest does.
func writeProbes(dir string, svc *service, container []byte, o *outcome) error {
	st, err := store.Open(filepath.Join(dir, "put-probe"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	cl := svc.peers[0].s.Cluster()
	var puts, ingests, slices, merges []float64
	for i := 0; i < ladderCycles; i++ {
		t0 := time.Now()
		meta, _, err := st.Put(container)
		puts = append(puts, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if err := st.Delete(meta.ID); err != nil {
			return err
		}

		t0 = time.Now()
		m, _, err := cl.Ingest(context.Background(), container)
		ingests = append(ingests, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		if err := cl.Delete(context.Background(), m.ID); err != nil {
			return err
		}

		info, err := sperr.Describe(container)
		if err != nil {
			return err
		}
		placement := cl.Ring().PlacementReplicas(m.ID, info.NumChunks, cl.Replicas())
		peers := make([]string, 0, len(placement))
		for p := range placement {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		var shards [][]byte
		t0 = time.Now()
		for _, p := range peers {
			owned := make(map[int]bool)
			for _, ci := range placement[p] {
				owned[ci] = true
			}
			sh, err := sperr.SliceShard(container, func(ci int) bool { return owned[ci] })
			if err != nil {
				return err
			}
			shards = append(shards, sh)
		}
		slices = append(slices, ms(time.Since(t0)))
		if len(shards) >= 2 {
			t0 = time.Now()
			if _, err := sperr.MergeShards(shards[0], shards[1]); err != nil {
				return err
			}
			merges = append(merges, ms(time.Since(t0)))
		}
	}
	o.set("store.put_ms", "ms", median(puts))
	o.set("cluster.ingest_ms", "ms", median(ingests))
	o.set("chunk.slice_ms", "ms", median(slices))
	o.set("chunk.merge_ms", "ms", median(merges))
	return nil
}

// hedges counts the hedged duplicate peer fetches the service made.
func hedges(svc *service) int64 {
	var n int64
	for _, p := range svc.peers {
		v, _ := p.s.Registry().Snapshot()["sperrd_cluster_hedges_total"].(int64)
		n += v
	}
	return n
}

// spaceAmp is the bytes a service's stores hold over the bytes of the
// distinct containers it serves.
func spaceAmp(svc *service, containerBytes int) float64 {
	var held int64
	for _, p := range svc.peers {
		held += p.s.Store().TotalBytes()
	}
	return ratio(float64(held), float64(containerBytes))
}

// cacheCounters sums the slab-cache and decode counters over a service.
type cacheCounters struct{ hits, misses, evictions, decodes, admissionWaits float64 }

func countersOf(svc *service) cacheCounters {
	var c cacheCounters
	for _, p := range svc.peers {
		st := p.s.Store()
		c.hits += float64(st.Cache().Hits())
		c.misses += float64(st.Cache().Misses())
		c.evictions += float64(st.Cache().Evictions())
		c.decodes += float64(st.Decodes())
		if n, ok := p.s.Registry().Snapshot()["sperrd_queue_wait_seconds_count"].(int64); ok {
			c.admissionWaits += float64(n)
		}
	}
	return c
}

// storeCounterMetrics reports the cache and admission counters moved by
// reads between two snapshots.
func storeCounterMetrics(o *outcome, a, b cacheCounters, reads int) {
	n := float64(reads)
	o.set("store.cache_hit_ratio", "ratio", ratio(b.hits-a.hits, b.hits-a.hits+b.misses-a.misses))
	o.set("store.decodes_per_read", "count", ratio(b.decodes-a.decodes, n))
	o.set("store.evictions_per_read", "count", ratio(b.evictions-a.evictions, n))
	o.set("server.admission_waits", "count", b.admissionWaits-a.admissionWaits)
}

// traceMetrics reports how sound the span tree is: the share of each
// top-level span no child covers, overall and for the encode and decode
// spans, and the traced-vs-untraced cost of the measured operation.
func traceMetrics(tr *tracer, o *outcome, traced, untraced float64) {
	an := tr.analyze()
	o.set("trace.unattributed_frac", "ratio", an.unattributed(""))
	o.set("trace.enc_unattributed_frac", "ratio", an.unattributed("stream.encode"))
	o.set("trace.dec_unattributed_frac", "ratio", an.unattributed("codec.dec"))
	o.set("trace.overhead_frac", "ratio", ratio(traced, untraced)-1)
}
