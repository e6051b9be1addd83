package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the latency at the highest percentile that still has at
// least ten samples beyond it, with that percentile; with ten samples or
// fewer, the maximum.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// quartiles formats the minimum, quartiles and maximum of xs.
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return "none"
	}
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g", s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1])
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() float64 {
	kb := procStatusKB("VmHWM")
	return float64(kb) / 1024
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, field+":"))
		if len(fields) == 0 {
			return 0
		}
		v, _ := strconv.ParseInt(fields[0], 10, 64)
		return v
	}
	return 0
}

// gcSample is a reading of the Go runtime's cumulative counters, or the
// difference between two readings.
type gcSample struct {
	allocBytes uint64
	cycles     uint32
	pauseNs    uint64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSample{allocBytes: ms.TotalAlloc, cycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// since returns the work between an earlier reading and this one.
func (g gcSample) since(earlier gcSample) gcSample {
	return gcSample{g.allocBytes - earlier.allocBytes, g.cycles - earlier.cycles, g.pauseNs - earlier.pauseNs}
}

func (g gcSample) plus(o gcSample) gcSample {
	return gcSample{g.allocBytes + o.allocBytes, g.cycles + o.cycles, g.pauseNs + o.pauseNs}
}

// perPass records the work, averaged over passes, as the go.* layer
// metrics.
func (g gcSample) perPass(passes int, into map[string]float64) {
	p := math.Max(1, float64(passes))
	into["go.alloc_mb"] = float64(g.allocBytes) / (1 << 20) / p
	into["go.gc_cycles"] = float64(g.cycles) / p
	into["go.gc_pause_s"] = float64(g.pauseNs) / 1e9 / p
}
