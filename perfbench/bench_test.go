package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/didclab/eta/internal/obs"
)

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, out: t.TempDir(),
		nproc: runtime.NumCPU(), setupReps: 2, tiny: true}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("workload %d: %v", i, err)
		}
	}
}

// Every workload runs a tiny transfer in both modes and must print every
// declared metric, with its declared unit, in the table and the result.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			var log bytes.Buffer
			res, err := run(context.Background(), tinyConfig(t, w.name, trace), &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(log.String(), m.Name) {
					t.Errorf("%s trace=%v: table does not print %s", w.name, trace, m.Name)
				}
			}
			if !trace && res.Metrics["ok_pct"].Value != 100 {
				t.Errorf("%s: ok_pct %v on a clean run", w.name, res.Metrics["ok_pct"].Value)
			}
		}
	}
}

// A sink that flips one byte must be caught: bulk and smallfiles through
// proto.VerifySink, mine-landed by re-reading the landed files.
func TestFlippedByteFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		cfg := tinyConfig(t, w.name, false)
		cfg.corrupt = true
		var log bytes.Buffer
		res, err := run(context.Background(), cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.name, err, log.String())
		}
		if res.Failed == 0 || res.Correct || res.Metrics["ok_pct"].Value >= 100 {
			t.Errorf("%s: a flipped byte went unnoticed: failed=%d ok_pct=%v\n%s",
				w.name, res.Failed, res.Metrics["ok_pct"].Value, log.String())
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {20, 30}, {-5, 2}}
	if got := covered(ivs, 0, 25); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := covered(nil, 0, 25); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("probe_ms", 1, 2, 3, 4)
	h.Observe(0.5) // before the window
	before := reg.Snapshot().Histograms["probe_ms"]
	for _, v := range []float64{1.5, 1.5, 3.5, 3.5} {
		h.Observe(v)
	}
	after := reg.Snapshot().Histograms["probe_ms"]
	if got := histQuantile(before, after, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2 (top of the (1,2] bucket)", got)
	}
	if got := histQuantile(before, after, 0.75); got != 3.5 {
		t.Errorf("p75 = %v, want 3.5 (middle of the (3,4] bucket)", got)
	}
}
