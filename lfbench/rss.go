package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler reads the process's resident set size every few milliseconds
// and keeps the highest value seen in each window the workload closes
// (a round, or a second of the service loop). peak_rss_mb is the median of
// the window peaks: the process-lifetime high-water mark moved by a third
// between runs of one stream, whenever a collection happened to start late
// in one round, while the median window peak repeats.
type rssSampler struct {
	mu    sync.Mutex
	cur   float64
	peaks samples
	stop  chan struct{}
	done  chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := rssMiB()
	s.mu.Lock()
	if v > s.cur {
		s.cur = v
	}
	s.mu.Unlock()
}

// window closes the current window, recording its peak.
func (s *rssSampler) window() {
	s.sample()
	s.mu.Lock()
	s.peaks.add(s.cur)
	s.cur = 0
	s.mu.Unlock()
}

// finish stops sampling and returns the median window peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peaks.median()
}

// rssMiB reads the resident set from /proc/self/statm (in pages).
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}
