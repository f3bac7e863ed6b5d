package main

// The benchmark's own checks: a short run of every workload, untraced
// and traced, must pass its oracles with no failed operation, and must
// report exactly the metrics BENCHMARK.json lists, with their units.
// Run with `go test` from this directory.

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

type listedMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func listedMetrics(t *testing.T) (e2e, layers []listedMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []listedMetric `json:"end_to_end"`
		PerLayer []listedMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := listedMetrics(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			mode, want := "e2e", e2e
			if traced {
				mode, want = "traced", layers
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg := runConfig{seed: 1, seconds: 1, dir: t.TempDir()}
				if traced {
					cfg.tr = newTracer()
				}
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range out.problems {
					t.Error("oracle:", p)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Errorf("error_frac: %d of %d operations failed", out.failed, out.attempted)
				}
				if name == "cluster-churn-cold" && !traced {
					reads, _ := out.context["reads"].(int)
					if ok := out.context["ok_trailer_reads"]; reads == 0 || ok != reads {
						t.Errorf("%v of %d cold reads carried X-Sperr-Status: ok", ok, reads)
					}
				}
				if len(out.metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(out.metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

func TestUnion(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 12}}
	if got := union(iv, 1, 10); got != 2+5 {
		t.Fatalf("union = %d, want 7", got)
	}
}

func TestQuantile(t *testing.T) {
	var s samples
	for i := 1; i <= 101; i++ {
		s = append(s, msDur(float64(i)))
	}
	if q := s.quantile(0.9); q != 91 {
		t.Fatalf("p90 = %v, want 91", q)
	}
	if n := s.beyond(0.9); n != 10 {
		t.Fatalf("beyond p90 = %d, want 10", n)
	}
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
