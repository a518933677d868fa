package proto

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/units"
)

// rendezvousStore holds every ReadAt until want reads are inside the
// store at once, or until wait runs out; a miss is recorded and
// releases every later read so the transfer still finishes.
type rendezvousStore struct {
	Store
	want   int32
	wait   time.Duration
	met    chan struct{}
	once   sync.Once
	inside atomic.Int32
	missed atomic.Bool
}

func (s *rendezvousStore) ReadAt(name string, p []byte, off int64) (int, error) {
	if s.inside.Add(1) >= s.want {
		s.once.Do(func() { close(s.met) })
	}
	timer := time.NewTimer(s.wait)
	select {
	case <-s.met:
	case <-timer.C:
		s.missed.Store(true)
		s.once.Do(func() { close(s.met) })
	}
	timer.Stop()
	s.inside.Add(-1)
	return s.Store.ReadAt(name, p, off)
}

func TestStripeStreamsReadConcurrently(t *testing.T) {
	// Each stream of a 4-stream GET reads its own stripe, so all four
	// are inside Store.ReadAt at once. A server that reads every block
	// on one goroutine never has more than one reader there.
	ds := dataset.NewGenerator(21).Uniform(1, 8*64*units.KB)
	store := &rendezvousStore{want: 4, wait: 2 * time.Second, met: make(chan struct{})}
	srv := synthServer(t, ds, func(c *ServerConfig) {
		store.Store = c.Store
		c.Store = store
		c.BlockSize = 64 * 1024
	})
	ch, err := (&Client{Addr: srv.Addr(), VerifyChecksums: true}).OpenChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	sink := NewVerifySink()
	if _, err := ch.Fetch(ds.Files, 1, sink); err != nil {
		t.Fatal(err)
	}
	if bad := sink.Corrupt(); len(bad) > 0 {
		t.Errorf("striped fetch corrupted: %v", bad)
	}
	if store.missed.Load() {
		t.Errorf("4 streams were never inside Store.ReadAt together within %v", store.wait)
	}
}

// failBlockStore fails the read at one offset of one file.
type failBlockStore struct {
	Store
	name string
	off  int64
}

func (s failBlockStore) ReadAt(name string, p []byte, off int64) (int, error) {
	if name == s.name && off == s.off {
		return 0, errors.New("injected read failure")
	}
	return s.Store.ReadAt(name, p, off)
}

func TestMidRangeReadErrorFailsOnlyThatGet(t *testing.T) {
	// A store error at block 5 of a 4-stream GET turns that GET into an
	// ERR, leaves the channel serving the next GET, and unwinds every
	// stream goroutine of the failed serve.
	before := runtime.NumGoroutine()
	ds := dataset.NewGenerator(22).Uniform(2, 8*64*units.KB)
	bad, good := ds.Files[0], ds.Files[1]
	reg := obs.NewRegistry()
	srv := synthServer(t, ds, func(c *ServerConfig) {
		c.Store = failBlockStore{Store: c.Store, name: bad.Name, off: 5 * 64 * 1024}
		c.BlockSize = 64 * 1024
		c.Metrics = reg
	})
	ch, err := (&Client{Addr: srv.Addr(), VerifyChecksums: true}).OpenChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	// The server books the failure and the channel survives it, so the
	// client error is the ERR line, not a transport or checksum failure.
	_, err = ch.Fetch([]dataset.File{bad}, 1, NewVerifySink())
	if err == nil || errors.Is(err, ErrChecksumMismatch) || errors.Is(err, ErrStalled) {
		t.Errorf("GET over a failing block: err = %v, want a server ERR", err)
	}
	if got := reg.Counter("server_requests_failed").Value(); got != 1 {
		t.Errorf("server_requests_failed = %d, want 1", got)
	}
	sink := NewVerifySink()
	if _, err := ch.Fetch([]dataset.File{good}, 1, sink); err != nil {
		t.Errorf("next GET on the same channel: %v", err)
	}
	if c := sink.Corrupt(); len(c) > 0 {
		t.Errorf("next GET corrupted: %v", c)
	}

	ch.Close()
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			t.Fatalf("goroutines leaked: %d at start, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	}
}
