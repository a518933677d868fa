package proto

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/units"
)

// fakeModelEnergy mimics monitor.ModelSource for tracing tests: a
// constant-power cumulative source that emits an energy_model_sample
// event (the curve the offline attribution replays) on every Total.
// Like ModelSource, the first Total primes it: the count starts there,
// reads 0 and emits no sample.
type fakeModelEnergy struct {
	start time.Time
	watts float64
	log   *obs.Log
}

func (f *fakeModelEnergy) Total() (units.Joules, error) {
	if f.start.IsZero() {
		f.start = time.Now()
		return 0, nil
	}
	j := f.watts * time.Since(f.start).Seconds()
	f.log.Emit(obs.EvEnergyModel, "joules_total", j, "watts", f.watts)
	return units.Joules(j), nil
}

// waitNoLiveSpans waits for every span to close: channel and
// server-session spans end asynchronously during teardown.
func waitNoLiveSpans(t *testing.T, tr *span.Tracer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.LiveCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans still open after teardown", tr.LiveCount())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTracedLoopback is the tracing acceptance check: a traced loopback
// transfer (client and server sharing one tracer and event log) must
// reconstruct into a balanced span forest whose attributed self-joules
// sum to the energy source's final total within 1%.
func TestTracedLoopback(t *testing.T) {
	ds := dataset.NewGenerator(61).Uniform(10, 256*units.KB)
	reg := obs.NewRegistry()
	var journal bytes.Buffer
	events := obs.NewLog(&journal)
	tracer := span.NewTracer(reg, events)

	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Events = events
		c.Trace = tracer
	})
	energy := &fakeModelEnergy{watts: 42, log: events}
	exec := &Executor{
		Client:      &Client{Addr: srv.Addr(), Counters: &Counters{}, VerifyChecksums: true},
		Sink:        NewVerifySink(),
		Energy:      energy,
		Environment: testEnv(),
		Metrics:     reg,
		Events:      events,
		Trace:       tracer,
		Label:       "traced",
	}
	r, err := exec.Run(context.Background(), planFor(ds, 2, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJoules <= 0 {
		t.Errorf("Report.EnergyJoules = %v, want > 0", r.EnergyJoules)
	}
	// The root span covers (essentially) the whole source interval, so
	// its online estimate must be close to the report's source total.
	if rel := math.Abs(r.EnergyJoules-float64(r.EndSystemEnergy)) / float64(r.EndSystemEnergy); rel > 0.05 {
		t.Errorf("EnergyJoules %v vs EndSystemEnergy %v (%.1f%% off)",
			r.EnergyJoules, r.EndSystemEnergy, rel*100)
	}

	// Server sessions (and their spans) close when the server does.
	srv.Close()
	waitNoLiveSpans(t, tracer)

	forest, err := span.ReadForest(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Leaked) > 0 || forest.Dangling > 0 {
		t.Fatalf("unbalanced forest: %d leaked, %d dangling", len(forest.Leaked), forest.Dangling)
	}
	byName := map[string]int{}
	for _, rec := range forest.ByID {
		byName[rec.Name]++
	}
	for _, want := range []string{
		span.NameTransfer, span.NameChunk, span.NameChannel, span.NameChannelDial,
		span.NameChannelStream, span.NameGet, span.NameServerSession,
		span.NameServerGet, span.NameServerStream,
	} {
		if byName[want] == 0 {
			t.Errorf("no %q span in the forest (saw %v)", want, byName)
		}
	}
	if byName[span.NameTransfer] != 1 {
		t.Errorf("%d transfer roots, want 1", byName[span.NameTransfer])
	}
	if byName[span.NameGet] != len(ds.Files) {
		t.Errorf("%d get spans for %d files", byName[span.NameGet], len(ds.Files))
	}

	// The transfer root's subtree must carry every payload byte on its
	// get spans.
	var root *span.Record
	for _, rec := range forest.Roots {
		if rec.Name == span.NameTransfer {
			root = rec
		}
	}
	if root == nil {
		t.Fatal("no transfer root")
	}
	var getBytes int64
	for _, rec := range forest.ByID {
		if rec.Name == span.NameGet {
			getBytes += rec.Bytes
		}
	}
	if getBytes != int64(ds.TotalSize()) {
		t.Errorf("get spans carry %d bytes, dataset has %d", getBytes, int64(ds.TotalSize()))
	}
	if path := span.CriticalPath(root); len(path) < 2 {
		t.Errorf("critical path has %d spans, want the root plus at least one child", len(path))
	}

	// Offline attribution: exclusive self-joules over the whole forest
	// must sum to the source's final cumulative total within 1%.
	span.Attribute(forest)
	total := forest.FinalJoules()
	if total <= 0 {
		t.Fatal("no energy samples in the journal")
	}
	sum := forest.SumSelfJoules()
	if rel := math.Abs(sum-total) / total; rel > 0.01 {
		t.Errorf("self-joules sum %v vs source total %v (%.2f%% off, want ≤1%%; unattributed %v)",
			sum, total, rel*100, forest.Unattributed)
	}
}
