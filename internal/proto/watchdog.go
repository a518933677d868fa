package proto

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/obs"
)

// ErrStalled marks a transfer the stall watchdog killed: requests were
// outstanding but no bytes arrived on any of the channel's connections
// for the configured stall timeout. A black-holed path produces exactly
// this — the connection stays open, nothing ever arrives — which no
// read loop can distinguish from a slow server without a progress
// deadline. The executor treats ErrStalled like any transport failure:
// the outstanding window is requeued and the channel re-dialed against
// the retry budget, with the retry booked under cause "stall".
var ErrStalled = errors.New("proto: transfer stalled")

// progressConn counts every byte read off a connection into the
// channel's shared progress counter — the signal the stall watchdog
// compares between checks. Byte-level (rather than per-block)
// granularity matters: on a heavily shaped link a single block can
// legitimately take longer than the stall timeout to assemble, but TCP
// still delivers something continuously unless the path is truly dead.
type progressConn struct {
	net.Conn
	progress *atomic.Int64
}

func (c progressConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.progress.Add(int64(n))
	}
	return n, err
}

// watchdog converts a hung channel into a transport error. Every
// timeout/4 it snapshots the channel's progress counter and pending
// request count; when requests have been outstanding with zero bytes
// arriving for a full timeout, it fails every pending request with
// ErrStalled and severs the connections so the blocked read loops
// unwind. An idle channel (nothing pending) never trips — idleness is
// the normal state between fetches.
func (ch *Channel) watchdog(timeout time.Duration) {
	defer ch.wg.Done()
	period := timeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	// One ticker for the watchdog's lifetime: a time.After per check
	// would leave a live timer behind on every return through watchStop.
	tick := time.NewTicker(period)
	defer tick.Stop()
	last := int64(-1)
	var idle time.Duration
	for {
		select {
		case <-ch.watchStop:
			return
		case <-tick.C:
		}
		cur := ch.progress.Load()
		ch.mu.Lock()
		pending := len(ch.pending)
		ch.mu.Unlock()
		if pending == 0 || cur != last {
			last = cur
			idle = 0
			continue
		}
		if idle += period; idle < timeout {
			continue
		}
		err := fmt.Errorf("%w: no bytes for %v with %d request(s) outstanding (stall timeout %v)",
			ErrStalled, idle, pending, timeout)
		ch.inst.stallsDetected.Inc()
		ch.client.Events.Emit(obs.EvStallDetected,
			"sid", ch.sid,
			"pending", pending,
			"idle_ms", idle.Milliseconds(),
			"timeout_ms", timeout.Milliseconds())
		ch.failAll(err)
		// Sever the connections: the control and stream read loops are
		// blocked inside Read and only a close unblocks them.
		ch.ctrl.Close()
		for _, s := range ch.streams {
			s.Close()
		}
		return
	}
}
