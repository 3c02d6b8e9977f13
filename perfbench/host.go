package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// hostInfo identifies the machine that produced a result, so numbers
// from different hosts can be told apart and roughly scaled. It is
// recorded with every result and never gated on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// CalibMS is the best of five timings of a fixed single-threaded
	// integer loop; a host twice as fast reads about half.
	CalibMS float64 `json:"calib_ms"`
}

func probeHost() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CalibMS:    calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed xorshift-multiply loop of 2^24 steps.
func calibrate() float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<24; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0xFF51AFD7ED558CCD
		}
		calibSink += x
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// resetPeakRSS returns the memory set-up freed to the OS and restarts
// the resident-set high-water mark (Linux clear_refs code 5), so
// peakRSSMB covers only what follows. Where the kernel refuses, the
// mark keeps covering the whole process.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// heapPeak tracks the largest live heap any garbage collection found
// while it runs. Unlike the resident-set peak it does not depend on
// when collections happen to run, only on what the program keeps.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// peakRSSMB returns the process's resident-set high-water mark
// (VmHWM) in MiB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
