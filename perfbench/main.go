// Command perfbench is the repository's end-to-end transfer benchmark.
// It runs one named workload against in-process loopback servers
// (proto.ListenAndServe) as a closed loop — one transfer at a time, the
// next starting when the previous one finishes — checks every transfer
// delivered the right bytes, and prints its metrics: the end-to-end set
// with -trace 0, the per-layer set with -trace 1. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"goodput_MBps": {"value": 281.5, "unit": "MB/s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	nproc    int
	// setupReps is how many times set-up is timed; setup_s is the
	// median.
	setupReps int
	// tiny shrinks the dataset and corrupt flips one byte of every
	// verified transfer: both for the self-test.
	tiny, corrupt bool
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	cfg := config{nproc: runtime.NumCPU(), setupReps: 21}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: bulk, smallfiles or mine-landed")
	flag.Int64Var(&cfg.seed, "seed", 1, "dataset seed: file names, and so content and order, derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the closed loop of timed transfers runs")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/run", "directory for landed files and the Chrome trace")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation, logging progress and the
// metric table to log, and returns the result line.
func run(ctx context.Context, cfg config, log io.Writer) (result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.seconds < 1 || cfg.setupReps < 1 {
		return result{}, errors.New("-seconds and set-up repetitions must be at least 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return result{}, err
	}
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	fmt.Fprintf(log, "workload %s (seed %d, %ds, trace %v, GOMAXPROCS %d): %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), w.why)

	// Set-up is timed several times; the last rig is kept.
	setups := make([]float64, 0, cfg.setupReps)
	var rg *rig
	for i := 0; i < cfg.setupReps; i++ {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		if rg, err = newRig(w, cfg, rec); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	fmt.Fprintf(log, "dataset: %d files, %v\n", rg.ds.Count(), rg.ds.TotalSize())

	b := &bench{cfg: cfg, rig: rg, rec: rec, log: log}
	// Warm-up: one verified transfer per server, outside the timing.
	for _, s := range rg.sides() {
		b.transfer(ctx, s, false, true)
	}
	// Hand the warm-up's verification garbage back to the OS, so that
	// the first timed transfers do not start from its footprint.
	debug.FreeOSMemory()
	before := b.snapshot()
	var plain, traced []sample
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start) >= time.Duration(cfg.seconds)*time.Second &&
			len(plain) > 0 && (!cfg.trace || len(traced) > 0)
		if enough {
			break
		}
		if cfg.trace && i%2 == 1 {
			traced = append(traced, b.transfer(ctx, rg.probed, true, false))
		} else {
			plain = append(plain, b.transfer(ctx, rg.plain, false, false))
		}
	}
	after := b.snapshot()
	if w.landed {
		b.checkLandedTrees()
	} else {
		b.transfer(ctx, rg.plain, false, true)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]value)}
	var table []metric
	var vals map[string]measure
	if cfg.trace {
		table = perLayer
		vals, err = b.layerMetrics(ctx, traced, plain, before, after)
	} else {
		table = endToEnd
		vals, err = b.endToEndMetrics(plain, setups)
	}
	if err != nil {
		return result{}, err
	}
	for _, m := range table {
		v := vals[m.name]
		res.Metrics[m.name] = value{Value: v.v, Unit: m.unit}
		fmt.Fprintf(log, "  %-30s %14.6g %-7s n=%d\n", m.name, v.v, m.unit, v.n)
	}
	fmt.Fprintf(log, "transfers: %d attempted, %d failed\n", res.Attempted, res.Failed)
	return res, nil
}

// measure is a metric's value and the number of samples behind it.
type measure struct {
	v float64
	n int
}
