package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestRegionOverflowingBoxIs400: origin (MaxInt,0,0) with dims (1,1,1)
// makes origin+dims wrap negative, which an origin+dims > vol check
// accepts. Every region endpoint must answer 400 from its bounds check,
// not 200 with zeros (nor 400 from some later failure).
func TestRegionOverflowingBoxIs400(t *testing.T) {
	spec := fmt.Sprintf("%d,0,0,1,1,1", math.MaxInt)
	container := readFixture(t, clusterFixtures[0].path)
	check := func(what string, res *http.Response, body []byte) {
		t.Helper()
		if res.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "outside volume") {
			t.Errorf("%s region %s: status %d (%.80q), want 400 from the bounds check", what, spec, res.StatusCode, body)
		}
	}

	_, ts := newStoreServer(t, Config{})
	id := ingest(t, ts, container, http.StatusCreated)
	res, body := do(t, "GET", ts.URL+"/v1/volumes/"+id+"/region?region="+spec, nil)
	check("stored volume", res, body)
	res, body = postRaw(t, ts.URL+"/v1/region?region="+spec, container)
	check("posted container", res, body)

	nodes := newClusterNodes(t, 2, nil)
	id = ingest(t, nodes[0].ts, container, http.StatusCreated)
	res, body = getClusterRegion(t, nodes[0], id, spec, "")
	check("cluster coordinator", res, body)
}
