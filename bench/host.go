package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line. Total is user through
// steal; guest time is already counted inside user and nice.
func parseProcStat(r io.Reader) (cpuTimes, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		var t cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: cpu field %d: %w", i+1, err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTimes{}, err
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

func readProcStat() (cpuTimes, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	defer f.Close()
	return parseProcStat(f)
}

// stealFrac is the host's stolen share of CPU time between two reads.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTime is this process's user+system CPU time. It is charged per
// process, so host CPU steal does not inflate it the way it does wall
// time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read around every pass. None of these reads stops
// the world.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocs      = "/gc/heap/allocs:objects"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
)

type runtimeCounters struct {
	allocs uint64
	gcCPU  float64
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}}
	metrics.Read(s)
	return runtimeCounters{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// sampler polls the live heap every 5 ms while a pass runs and keeps the
// high-water mark.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const sampleTick = 5 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: mHeapObjects}}
		tick := time.NewTicker(sampleTick)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.peak = max(s.peak, sample[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak heap in bytes.
func (s *sampler) finish() uint64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// pollMax runs read every sampleTick until the returned stop function is
// called, which waits for the poller and returns the largest value read.
func pollMax(read func() int64) (stop func() int64) {
	var peak int64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(sampleTick)
		defer tick.Stop()
		for {
			peak = max(peak, read())
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(quit)
		<-done
		return peak
	}
}
