package cluster

// HTTP peer protocol client. The protocol is three verbs under
// /v1/internal/chunks/{id}:
//
//	PUT    body = shard container        -> 200/201
//	DELETE                               -> 204 (404 = already gone)
//	GET    ?region=x,y,z,nx,ny,nz&chunks=i,j,...
//	       -> stream of frames, one per servable chunk:
//	          u32 LE chunk index | u32 LE sample count | samples f64 LE
//
// The GET response is streamed frame-by-frame so the coordinator can
// hand each chunk to the assembler the moment it arrives; a peer that
// cannot serve a requested chunk simply omits its frame (the
// coordinator retries, then fills). Samples are raw float64 bits, so a
// gathered region is bit-identical to a local decode.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sperr/internal/grid"
)

// chunkFrameHeaderSize is the per-frame prefix: u32 index + u32 count.
const chunkFrameHeaderSize = 8

// sharedTransport is the single pooled transport every Cluster dials
// peers through unless Config.Client overrides it. Peer RPCs are small,
// frequent, and aimed at a handful of hosts, so connection reuse with
// capped per-host pools beats http.DefaultTransport's unbounded dials —
// especially under the scrubber, whose background fetches would
// otherwise compete with reads for fresh connections.
var sharedTransport = &http.Transport{
	MaxIdleConns:        128,
	MaxIdleConnsPerHost: 16,
	MaxConnsPerHost:     64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedClient wraps sharedTransport; timeouts come from per-attempt
// contexts, never from the client itself.
var sharedClient = &http.Client{Transport: sharedTransport}

func (c *Cluster) chunkURL(peer, id string) string {
	return c.peers[peer] + "/v1/internal/chunks/" + id
}

// outcomeOf classifies an RPC error for the per-peer outcome counter.
func outcomeOf(ctx context.Context, err error) string {
	if err == nil {
		return "ok"
	}
	if ctx.Err() == context.DeadlineExceeded {
		return "timeout"
	}
	return "error"
}

// shipShard PUTs a shard to a peer, retrying with capped backoff.
// Shards can be large, so each attempt gets a generous multiple of the
// fetch timeout.
func (c *Cluster) shipShard(ctx context.Context, peer, id string, shard []byte) error {
	timeout := 5 * c.timeout
	if timeout < 10*time.Second {
		timeout = 10 * time.Second
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if c.hooks.OnRetry != nil {
				c.hooks.OnRetry(peer)
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			if backoff *= 2; backoff > 500*time.Millisecond {
				backoff = 500 * time.Millisecond
			}
		}
		actx, cancel := context.WithTimeout(ctx, timeout)
		err := c.putOnce(actx, peer, id, shard)
		c.onPeerRequest(peer, outcomeOf(actx, err))
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return lastErr
}

func (c *Cluster) putOnce(ctx context.Context, peer, id string, shard []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.chunkURL(peer, id), bytes.NewReader(shard))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return httpError(resp)
	}
	return nil
}

// deleteShard removes a shard from a peer; 404 counts as success.
func (c *Cluster) deleteShard(ctx context.Context, peer, id string) error {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodDelete, c.chunkURL(peer, id), nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(actx, err))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
		return httpError(resp)
	}
	return nil
}

// fetchChunks GETs the listed chunks' region intersections from a peer
// and delivers each frame to the sink as it arrives. Returns an error
// if the stream dies or if any requested chunk is missing from the
// response (short stream — peer could not serve it). The peer clips each
// listed chunk against the region box itself.
func (c *Cluster) fetchChunks(ctx context.Context, peer, id string, region grid.Box, hs []chunkHit, sink *chunkSink) (err error) {
	defer func() { c.onPeerRequest(peer, outcomeOf(ctx, err)) }()

	want := make(map[int]chunkHit, len(hs))
	var list strings.Builder
	for i, h := range hs {
		want[h.index] = h
		if i > 0 {
			list.WriteByte(',')
		}
		list.WriteString(strconv.Itoa(h.index))
	}
	o, d := region.Origin, region.Dims
	u := fmt.Sprintf("%s?region=%d,%d,%d,%d,%d,%d&chunks=%s", c.chunkURL(peer, id),
		o[0], o[1], o[2], d[0], d[1], d[2], list.String())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	served := 0
	var hdr [chunkFrameHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("cluster: peer %s stream: %w", peer, err)
		}
		ci := int(binary.LittleEndian.Uint32(hdr[0:4]))
		n := int(binary.LittleEndian.Uint32(hdr[4:8]))
		h, ok := want[ci]
		if !ok {
			return fmt.Errorf("cluster: peer %s sent unrequested chunk %d", peer, ci)
		}
		if wantN := h.box.Len(); n != wantN {
			return fmt.Errorf("cluster: peer %s chunk %d: %d samples, want %d", peer, ci, n, wantN)
		}
		samples := make([]float64, n)
		if err := readSamples(br, samples); err != nil {
			return fmt.Errorf("cluster: peer %s chunk %d: %w", peer, ci, err)
		}
		sink.deliver(h.piece(samples, false))
		served++
	}
	if served < len(hs) {
		return fmt.Errorf("cluster: peer %s served %d of %d chunks", peer, served, len(hs))
	}
	return nil
}

// readSamples fills dst with little-endian float64 bits from r. The
// bit-for-bit round trip is what keeps a gathered region identical to a
// local decode.
func readSamples(r io.Reader, dst []float64) error {
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return nil
}

// fetchRepair POSTs a repair request to a peer and returns the shard
// container it answers with: a valid shard of volume id holding the
// intersection of the requested chunks with what the peer has intact.
// The caller merges that shard into its own store frame-by-frame, so a
// partial answer still heals every chunk it does carry.
func (c *Cluster) fetchRepair(ctx context.Context, peer, id string, chunks []int) ([]byte, error) {
	var list strings.Builder
	for i, ci := range chunks {
		if i > 0 {
			list.WriteByte(',')
		}
		list.WriteString(strconv.Itoa(ci))
	}
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	u := c.peers[peer] + "/v1/internal/repair/" + id + "?chunks=" + list.String()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(actx, err))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	return io.ReadAll(resp.Body)
}

// ManifestEntry is one volume in a peer's manifest listing.
type ManifestEntry struct {
	ID        string `json:"id"`
	NumChunks int    `json:"num_chunks"`
}

// fetchManifest lists the volumes a peer knows about. A rejoining or
// replacement node discovers what it should own by unioning its peers'
// manifests, then repairs itself chunk by chunk.
func (c *Cluster) fetchManifest(ctx context.Context, peer string) ([]ManifestEntry, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.peers[peer]+"/v1/internal/manifest", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	c.onPeerRequest(peer, outcomeOf(actx, err))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var out []ManifestEntry
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("cluster: peer %s manifest: %w", peer, err)
	}
	return out, nil
}

// httpError summarizes a non-success peer response, keeping the first
// line of the body.
func httpError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	msg := strings.TrimSpace(string(b))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Errorf("cluster: peer answered %d: %s", resp.StatusCode, msg)
}

// drainClose discards the remainder of a response body so the
// connection can be reused, then closes it.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}
