package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/sched"
)

// Host-reference ceilings: what the hardware does for the stages a
// block passes through, with none of the protocol around them.

const ceilingBlock = proto.DefaultBlockSize

// fillCeiling is proto.FillSynth's rate on one goroutine, in MB/s.
func fillCeiling(d time.Duration) float64 {
	buf := make([]byte, ceilingBlock)
	var n int64
	start := time.Now()
	for time.Since(start) < d {
		proto.FillSynth("ceiling.dat", n, buf)
		n += int64(len(buf))
	}
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// crcCeiling is CRC-32C's rate on one goroutine, in MB/s.
func crcCeiling(d time.Duration) float64 {
	buf := make([]byte, ceilingBlock)
	proto.FillSynth("ceiling.dat", 0, buf)
	table := crc32.MakeTable(crc32.Castagnoli)
	var n int64
	var sum uint32
	start := time.Now()
	for time.Since(start) < d {
		sum = crc32.Update(sum, table, buf)
		n += int64(len(buf))
	}
	_ = sum
	return float64(n) / time.Since(start).Seconds() / 1e6
}

// tcpCeiling copies pre-filled buffers over streams loopback TCP
// connections for d and returns the aggregate rate in MB/s.
func tcpCeiling(ctx context.Context, streams int, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	start := time.Now()
	stop := start.Add(d)
	// Nothing here should outlive the copy by much; the deadline turns a
	// lost peer into an error instead of a hang.
	giveUp := stop.Add(10 * time.Second)
	if err := ln.(*net.TCPListener).SetDeadline(giveUp); err != nil {
		return 0, err
	}
	var moved atomic.Int64
	err = sched.ForEach(ctx, 2*streams, 2*streams, func(_ context.Context, i int) error {
		buf := make([]byte, ceilingBlock)
		if i < streams { // writer
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := conn.SetDeadline(giveUp); err != nil {
				return err
			}
			proto.FillSynth("ceiling.dat", 0, buf)
			for time.Now().Before(stop) {
				if _, err := conn.Write(buf); err != nil {
					return err
				}
			}
			return nil
		}
		conn, err := ln.Accept() // reader
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.SetDeadline(giveUp); err != nil {
			return err
		}
		for {
			n, err := conn.Read(buf)
			moved.Add(int64(n))
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, err
	}
	secs := time.Since(start).Seconds()
	if moved.Load() == 0 {
		return 0, fmt.Errorf("no bytes moved")
	}
	return float64(moved.Load()) / secs / 1e6, nil
}
