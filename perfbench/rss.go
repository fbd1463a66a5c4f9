package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// rssInterval is how often an rssSampler reads the resident set size. Go
// hands freed memory back to the kernel gradually, so the resident size
// moves over tens of milliseconds and sampling at this rate sees its peak.
const rssInterval = 10 * time.Millisecond

// rssSampler tracks the peak resident set size of one process while an
// interval of interest runs, by reading VmRSS from its /proc status file.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

// sampleRSS starts sampling the process whose status file is path.
func sampleRSS(path string) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB(path)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, residentMB(path))
				return
			case <-tick.C:
				peak = max(peak, residentMB(path))
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the largest resident size it saw,
// in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.done
}

// residentMB reads VmRSS, in MiB, from a /proc status file; 0 if the file
// cannot be read.
func residentMB(path string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
