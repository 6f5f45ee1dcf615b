package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's own resource use;
// metrics are differences of two readings around a phase.
type procSnap struct {
	cpu      time.Duration // user+sys of this process
	allocKB  float64       // cumulative heap allocation
	gcPause  time.Duration
	gcCycles uint32
}

func readProc() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.allocKB = float64(m.TotalAlloc) / 1024
	s.gcPause = time.Duration(m.PauseTotalNs)
	s.gcCycles = m.NumGC
	return s
}

// statusMB reads one "Vm...:" line of /proc/self/status, in MB (0 when
// procfs is not there).
func statusMB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// peakRSSMB is VmHWM of this process, the high-water mark of its resident
// set. Each workload runs in a process of its own so the mark is its own.
func peakRSSMB() float64 {
	if mb := statusMB("VmHWM:"); mb > 0 {
		return mb
	}
	// No procfs: ru_maxrss (kilobytes on Linux) is the same mark.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// rssSampler reads VmRSS four times a second while a workload measures.
// The median resident set repeats from run to run; the high-water mark is
// the maximum of a sawtooth the garbage collector draws, and does not.
type rssSampler struct {
	stop func()
	mb   []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{}
	s.stop = every(250*time.Millisecond, func() {
		if mb := statusMB("VmRSS:"); mb > 0 {
			s.mb = append(s.mb, mb)
		}
	})
	return s
}

// finish stops sampling and returns the median resident set in MB (the
// high-water mark when no sample could be read).
func (s *rssSampler) finish() (float64, int64) {
	s.stop()
	if len(s.mb) == 0 {
		return peakRSSMB(), 1
	}
	return median(s.mb), int64(len(s.mb))
}
