package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile of samples (0 when empty).
// It sorts samples in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianDuration is the median of ds (0 when empty).
func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMiB is the peak resident set of this process (VmHWM) since
// the count was last restarted, falling back to the Go runtime's total
// mapped memory where /proc is absent.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// restartPeakRSS restarts the peak resident set count at the current
// resident set. Where the reset is unavailable the peak covers the
// whole process.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindow is the length of the windows the timed phase's resident
// set is recorded in.
const rssWindow = 100 * time.Millisecond

// rssWindows records the peak resident set of each rssWindow of the
// timed phase.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// startRSSWindows returns the heap's free pages to the OS, so that the
// transient memory of building the inputs is not counted, and starts
// the first window.
func startRSSWindows() *rssWindows {
	debug.FreeOSMemory()
	restartPeakRSS()
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.peaks = append(w.peaks, peakRSSMiB())
				restartPeakRSS()
			}
		}
	}()
	return w
}

// finish stops the windows and returns, in MiB, the median of the
// window peaks and the peak of the whole phase.
//
// corpus and search report the median. Their working set is
// stationary, and the peak of the whole phase rests on the few hardest
// loops of the draw and on which GC cycle marked while one of them was
// in flight, so it moves by about a fifth from seed to seed. serve
// reports the peak: its resident set grows as the cache fills, and the
// peak is where it ends.
func (w *rssWindows) finish() (median, peak float64) {
	close(w.stop)
	<-w.done
	peaks := append(w.peaks, peakRSSMiB())
	slices.Sort(peaks)
	n := len(peaks)
	return (peaks[(n-1)/2] + peaks[n/2]) / 2, peaks[n-1]
}

// runtimeSample is a snapshot of the Go runtime's GC accounting.
type runtimeSample struct {
	gcCycles        uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	var cycles uint64
	if s[0].Value.Kind() == metrics.KindUint64 {
		cycles = s[0].Value.Uint64()
	}
	return runtimeSample{gcCycles: cycles, gcCPU: f(1), totalCPU: f(2) - f(3)}
}

// runtimeDelta is the GC activity between two samples: cycles, and the
// share of the busy CPU time the collector took.
func runtimeDelta(a, b runtimeSample) (cycles uint64, gcShare float64) {
	cycles = b.gcCycles - a.gcCycles
	if busy := b.totalCPU - a.totalCPU; busy > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / busy
	}
	return cycles, gcShare
}
