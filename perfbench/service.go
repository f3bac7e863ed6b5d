package main

// In-process sperrd instances on loopback listeners, and the HTTP client
// side of the region workloads: PUT/DELETE/region requests, and the
// read oracle that checks every returned box against an in-process
// decode of the same container.

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sperr"
	"sperr/internal/grid"
	"sperr/internal/rawio"
	"sperr/internal/server"
)

// peer is one sperrd instance serving on a loopback listener.
type peer struct {
	s    *server.Server
	url  string
	done chan error
}

func (p *peer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := p.s.Shutdown(ctx)
	if serr := <-p.done; err == nil {
		err = serr
	}
	return err
}

func startPeer(cfg server.Config, ln net.Listener) (*peer, error) {
	s, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	p := &peer{s: s, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- s.Serve(ln) }()
	return p, nil
}

// service is a running node or cluster plus its HTTP client.
type service struct {
	peers   []*peer
	client  *http.Client
	dir     string
	cluster bool // peers form one roster
}

// bootNode starts one sperrd with its store under dir and no peers.
func bootNode(dir string, cacheSamples int64) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p, err := startPeer(server.Config{StoreDir: filepath.Join(dir, "node-a"), NodeID: "node-a", CacheSamples: cacheSamples}, ln)
	if err != nil {
		return nil, err
	}
	return &service{peers: []*peer{p}, client: newClient(), dir: dir}, nil
}

// bootCluster starts n sperrd peers wired into one roster with the given
// replica count. The scrubber is off, so no background pass lands inside
// a measurement.
func bootCluster(dir string, n, replicas int, cacheSamples int64) (*service, error) {
	lns := make([]net.Listener, n)
	var roster []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		roster = append(roster, fmt.Sprintf("node-%c=http://%s", 'a'+i, ln.Addr()))
	}
	svc := &service{client: newClient(), dir: dir, cluster: true}
	for i, ln := range lns {
		id := fmt.Sprintf("node-%c", 'a'+i)
		p, err := startPeer(server.Config{
			StoreDir:      filepath.Join(dir, id),
			NodeID:        id,
			Peers:         roster,
			PeerTimeout:   5 * time.Second,
			Replicas:      replicas,
			ScrubInterval: -1,
			CacheSamples:  cacheSamples,
		}, ln)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			svc.stop()
			return nil, err
		}
		svc.peers = append(svc.peers, p)
	}
	return svc, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}
}

// stop shuts every peer down, waits for each, and removes the stores.
func (s *service) stop() error {
	var first error
	for _, p := range s.peers {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	s.client.CloseIdleConnections()
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// put ingests a container through coordinator c and returns its id.
func (s *service) put(c int, container []byte) (string, error) {
	req, err := http.NewRequest(http.MethodPut, s.peers[c].url+"/v1/volumes", bytes.NewReader(container))
	if err != nil {
		return "", err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusCreated && res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("PUT: status %d", res.StatusCode)
	}
	return res.Header.Get("X-Sperr-Volume-Id"), nil
}

// del removes a volume through coordinator c.
func (s *service) del(c int, id string) error {
	req, err := http.NewRequest(http.MethodDelete, s.peers[c].url+"/v1/volumes/"+id, nil)
	if err != nil {
		return err
	}
	res, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if _, err := io.Copy(io.Discard, res.Body); err != nil {
		return err
	}
	if res.StatusCode != http.StatusNoContent {
		return fmt.Errorf("DELETE: status %d", res.StatusCode)
	}
	return nil
}

// box is a region request: origin and extent.
type box struct{ o, d [3]int }

func (b box) spec() string {
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d", b.o[0], b.o[1], b.o[2], b.d[0], b.d[1], b.d[2])
}

func (b box) points() int { return b.d[0] * b.d[1] * b.d[2] }

// readReply is what one region GET returned.
type readReply struct {
	status  int
	trailer string // X-Sperr-Status ("" when the path sets none)
	cache   string // X-Sperr-Cache (single-node path)
	bytes   int
	crc     uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// region reads box b of volume id through coordinator c. buf is reused
// across calls by one caller. When tr is set, the request-to-headers and
// body phases are child spans of parent.
func (s *service) region(c int, id string, b box, buf *bytes.Buffer, tr *tracer, parent, req int64) (readReply, error) {
	var rep readReply
	hid := tr.begin("http.headers", parent, req)
	res, err := s.client.Get(s.peers[c].url + "/v1/volumes/" + id + "/region?region=" + b.spec())
	tr.end(hid)
	if err != nil {
		return rep, err
	}
	defer res.Body.Close()
	bid := tr.begin("http.body", parent, req)
	buf.Reset()
	_, err = buf.ReadFrom(res.Body)
	tr.end(bid)
	if err != nil {
		return rep, err
	}
	rep.status = res.StatusCode
	rep.trailer = res.Trailer.Get("X-Sperr-Status")
	rep.cache = res.Header.Get("X-Sperr-Cache")
	rep.bytes = buf.Len()
	rep.crc = crc32.Checksum(buf.Bytes(), castagnoli)
	return rep, nil
}

// readRecord is one successful read kept for the oracle.
type readRecord struct {
	vol int
	b   box
	crc uint32
}

// verifyReads decodes each container in process once and checks every
// recorded box against it: the CRC-32C of the float64 bytes must match.
// The first two boxes of each volume are also checked against
// sperr.DecompressRegion directly.
func verifyReads(containers [][]byte, recs []readRecord, o *outcome) {
	byVol := make(map[int][]readRecord)
	for _, r := range recs {
		byVol[r.vol] = append(byVol[r.vol], r)
	}
	for v, rs := range byVol {
		full, dims, err := sperr.DecompressWorkers(containers[v], runtime.NumCPU())
		if err != nil {
			o.fail("oracle decode of volume %d: %v", v, err)
			continue
		}
		vol := grid.FromSlice(grid.D3(dims[0], dims[1], dims[2]), full)
		expected := make(map[box]uint32)
		for i, r := range rs {
			want, ok := expected[r.b]
			if !ok {
				cut := vol.Cutout(r.b.o[0], r.b.o[1], r.b.o[2], grid.D3(r.b.d[0], r.b.d[1], r.b.d[2])).Data
				if i < 2 {
					direct, err := sperr.DecompressRegion(containers[v], r.b.o, r.b.d)
					if err != nil || !equalBits(direct, cut) {
						o.fail("volume %d box %s: DecompressRegion disagrees with the full decode (%v)", v, r.b.spec(), err)
					}
				}
				raw, err := rawio.EncodeFloats(cut, 8)
				if err != nil {
					o.fail("%v", err)
					continue
				}
				want = crc32.Checksum(raw, castagnoli)
				expected[r.b] = want
			}
			if want != r.crc {
				o.fail("volume %d box %s: served bytes differ from the in-process decode", v, r.b.spec())
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// complete reports whether a read's X-Sperr-Status trailer witnesses a
// whole response. A cluster read must end in "ok": a missing trailer, an
// "error: ..." after the status line or a "degraded: ..." fill all fail.
// The single-node volume path sends no trailer, so there it may be absent.
func (s *service) complete(trailer string) bool {
	return trailer == "ok" || (!s.cluster && trailer == "")
}
