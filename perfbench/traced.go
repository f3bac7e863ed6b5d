package main

// The traced runs. Each times the workload's inputs through the layer
// ladder (ladder.go), then runs the workload's own loop with every other
// operation traced, which gives the tracing overhead on the same inputs
// and the cache counters under the workload's real mix.

import (
	"bytes"
	"path/filepath"
	"time"
)

func tracedPipeline(cfg runConfig, o *outcome, field []float64, ref []byte) error {
	tr := cfg.tr
	if err := codecLadder(tr, o, field, ref, 64); err != nil {
		return err
	}
	// Store, server and cluster are not on this workload's path: probe one
	// sperrd request and a 3-peer cluster read of the same container.
	boxes := seededBoxes(cfg.seed, ladderProbeReads)
	pn, err := bootNode(filepath.Join(cfg.dir, "probe-node"), 2*volPoints)
	if err != nil {
		return err
	}
	id, err := pn.put(0, ref)
	if err != nil {
		pn.stop()
		return err
	}
	before := countersOf(pn)
	st := nodeProbe(tr, pn, id, boxes, true, o)
	storeCounterMetrics(o, before, countersOf(pn), 2*len(boxes))
	o.set("server.self_ms", "ms", st.self())
	o.set("store.region_ms", "ms", mean(st.layer))
	o.set("store.space_amp", "ratio", spaceAmp(pn, len(ref)))
	if err := pn.stop(); err != nil {
		return err
	}
	if err := probeCluster(cfg, o, ref, boxes, true); err != nil {
		return err
	}

	// The workload's own loop, every other round trip traced.
	var encs, decs, tEncs, tDecs samples
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration() || i < 2; i++ {
		t := tracedEvery(tr, i)
		t0 := time.Now()
		c, _, _, err := encodeStream(field, 64, t)
		de := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		if !bytes.Equal(c, ref) {
			o.fail("traced-run encode differs from the reference stream")
		}
		t0 = time.Now()
		rec, _, err := decodeStream(ref, t)
		dd := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			continue
		}
		if e := maxAbsErr(field, rec); e > tol {
			o.fail("traced-run decode: max error %g > %g", e, tol)
		}
		if t != nil {
			tEncs, tDecs = append(tEncs, de), append(tDecs, dd)
		} else {
			encs, decs = append(encs, de), append(decs, dd)
		}
	}
	traceMetrics(tr, o, tEncs.quantile(0.5)+tDecs.quantile(0.5), encs.quantile(0.5)+decs.quantile(0.5))
	return nil
}

// regionTraceInput is what a region workload hands its traced run.
type regionTraceInput struct {
	field      []float64 // the volume container was compressed from
	container  []byte    // a resident volume
	id         string    // its id
	spare      []byte    // a volume not resident (cluster only)
	svc        *service
	single     bool     // svc is a single node (else a cluster)
	containers [][]byte // every volume reads may return, by index
	heldBytes  int      // bytes of the distinct resident containers
	loop       func(time.Duration) (*callerStats, time.Duration)
}

func tracedRegion(cfg runConfig, o *outcome, in regionTraceInput) error {
	tr := cfg.tr
	if err := codecLadder(tr, o, in.field, in.container, regionChunk); err != nil {
		return err
	}
	boxes := seededBoxes(cfg.seed, ladderProbeReads)
	if in.single {
		st := nodeProbe(tr, in.svc, in.id, boxes, false, o)
		o.set("server.self_ms", "ms", st.self())
		o.set("store.region_ms", "ms", mean(st.layer))
		// The cluster layer is not on this workload's path: probe it on a
		// cluster holding the same volume, warmed like the node.
		if err := probeCluster(cfg, o, in.container, boxes, false); err != nil {
			return err
		}
	} else {
		st, storeMs := clusterProbe(tr, in.svc, in.id, boxes, true, o)
		o.set("server.self_ms", "ms", st.self())
		o.set("store.region_ms", "ms", mean(storeMs))
		if err := writeProbes(cfg.dir, in.svc, in.spare, o); err != nil {
			return err
		}
	}
	o.set("store.space_amp", "ratio", spaceAmp(in.svc, in.heldBytes))

	if !in.single {
		in.loop(warmup) // refill the caches the cold probes purged
	}
	before := countersOf(in.svc)
	cs, _ := in.loop(cfg.duration())
	after := countersOf(in.svc)
	storeCounterMetrics(o, before, after, len(cs.reads)+len(cs.traced))
	verifyReads(in.containers, cs.recs, o)
	o.attempted, o.failed = cs.attempted, cs.failed
	traceMetrics(tr, o, cs.traced.quantile(0.5), cs.reads.quantile(0.5))
	return nil
}

// probeCluster boots a three-peer R=2 cluster, probes its write path
// with container, ingests it and probes the read path on boxes, purging
// caches before every read when cold, else after warming them.
func probeCluster(cfg runConfig, o *outcome, container []byte, boxes []box, cold bool) error {
	pc, err := bootCluster(filepath.Join(cfg.dir, "probe-cluster"), 3, 2, 2*volPoints)
	if err != nil {
		return err
	}
	defer pc.stop()
	if err := writeProbes(cfg.dir, pc, container, o); err != nil {
		return err
	}
	id, err := pc.put(0, container)
	if err != nil {
		return err
	}
	if !cold {
		var buf bytes.Buffer
		for i, b := range boxes {
			if _, err := pc.region(i%len(pc.peers), id, b, &buf, nil, 0, 0); err != nil {
				return err
			}
		}
	}
	clusterProbe(cfg.tr, pc, id, boxes, cold, o)
	return nil
}
