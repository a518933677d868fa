package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/didclab/eta/internal/obs"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 when xs is empty. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fineBucketsMS are log-spaced histogram bounds from 1 µs to about
// 100 s, 5% apart. Registering a program histogram with them before
// the program first asks for it keeps the program's own name and
// observations while making its quantiles accurate to 5%.
var fineBucketsMS = func() []float64 {
	var b []float64
	for v := 0.001; v < 1e5; v *= 1.05 {
		b = append(b, v)
	}
	return b
}()

// histQuantile estimates the q-quantile of the observations a histogram
// received between two snapshots, interpolating inside the bucket the
// quantile falls in.
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	total := after.Count - before.Count
	if total <= 0 || len(after.Buckets) == 0 {
		return 0
	}
	want := q * float64(total)
	var prevLe float64
	var prevCum int64
	for i, b := range after.Buckets {
		cum := b.Count
		if i < len(before.Buckets) {
			cum -= before.Buckets[i].Count
		}
		if float64(cum) >= want && cum > prevCum {
			frac := (want - float64(prevCum)) / float64(cum-prevCum)
			return prevLe + frac*(b.Le-prevLe)
		}
		prevLe, prevCum = b.Le, cum
	}
	return prevLe // in the overflow bucket: report its lower edge
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's count of this process's peak
// resident set at its current size, so that peakRSSMB covers only what
// runs after it. Where the kernel refuses the reset, peakRSSMB reports
// the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, as above
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// interval is a half-open time span in nanoseconds since the
// benchmark's epoch.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total, end int64
	end = lo
	for _, iv := range s {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}
