package proto

import "sync"

// Block payload buffers on the real-TCP data path are recycled through
// size-bucketed pools so the steady state moves blocks with no
// per-block allocation: each server stream goroutine takes a pooled
// buffer per block, reads, checksums and writes it, and returns it
// before the next block; each client stream loop holds one pooled
// buffer for the lifetime of its connection. No buffer crosses a
// goroutine boundary.
//
// Buckets are power-of-two capacities from 64 KiB to 8 MiB. Bucketing
// caps steady-state retention: a server run at a block size above
// DefaultBlockSize pools its larger buffers in their own bucket instead
// of growing every pooled buffer to the larger capacity forever, so
// mixed block sizes do not bloat the pool. Requests above the largest
// bucket allocate directly and are never pooled.
//
// Ownership rules (see DESIGN.md §6):
//
//   - whoever calls getBlockBuf must arrange exactly one putBlockBuf,
//     on every path including errors;
//   - payload slices handed to a Sink.WriteAt are only valid for the
//     duration of the call — sinks must not retain them.
const (
	minBufBucketBits = 16 // 64 KiB
	maxBufBucketBits = 23 // 8 MiB
	numBufBuckets    = maxBufBucketBits - minBufBucketBits + 1
	maxPooledBufSize = 1 << maxBufBucketBits
)

var blockBufPools [numBufBuckets]sync.Pool

// bufBucketSize is the capacity of every buffer in bucket i.
func bufBucketSize(i int) int { return 1 << (minBufBucketBits + i) }

// bufBucketFor returns the smallest bucket whose capacity holds n, or
// -1 when n exceeds the largest pooled size.
func bufBucketFor(n int) int {
	for i := 0; i < numBufBuckets; i++ {
		if n <= bufBucketSize(i) {
			return i
		}
	}
	return -1
}

// getBlockBuf returns a buffer resized to length n, drawn from the
// matching size bucket (or freshly allocated above the pooled range).
func getBlockBuf(n int) *[]byte {
	i := bufBucketFor(n)
	if i < 0 {
		b := make([]byte, n)
		return &b
	}
	p, _ := blockBufPools[i].Get().(*[]byte)
	if p == nil {
		b := make([]byte, bufBucketSize(i))
		p = &b
	}
	*p = (*p)[:n]
	return p
}

// putBlockBuf returns a buffer to its size bucket. Buffers whose
// capacity matches no bucket (oversize direct allocations) are dropped
// for the garbage collector instead of pinning pool memory.
func putBlockBuf(p *[]byte) {
	if p == nil {
		return
	}
	c := cap(*p)
	i := bufBucketFor(c)
	if i < 0 || bufBucketSize(i) != c {
		return
	}
	*p = (*p)[:c]
	blockBufPools[i].Put(p)
}
