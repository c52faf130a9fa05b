package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// heapWatch samples runtime.MemStats in the background and keeps the
// highest HeapInuse seen — the number the out-of-core memory guard in
// scripts/check.sh compares against its committed budget — and the bytes
// allocated since it started (the TotalAlloc delta), so an allocation
// census needs no profiler. Sampling every 20ms bounds the stop-the-world
// cost while still catching the ingest and partition peaks, which last much
// longer than one interval.
type heapWatch struct {
	stop  chan struct{}
	once  sync.Once
	done  chan struct{}
	high  atomic.Uint64
	start uint64        // TotalAlloc when the watch started
	total atomic.Uint64 // TotalAlloc at the latest sample
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.start = ms.TotalAlloc
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for stopping := false; ; {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > w.high.Load() {
				w.high.Store(ms.HeapInuse)
			}
			w.total.Store(ms.TotalAlloc)
			if stopping {
				return
			}
			select {
			case <-w.stop:
				stopping = true
			case <-tick.C:
			}
		}
	}()
	return w
}

// Stop takes a final sample and returns the high-water HeapInuse and the
// bytes allocated since the watch started. Calls after the first return the
// same values.
func (w *heapWatch) Stop() (high, alloc uint64) {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	return w.high.Load(), w.total.Load() - w.start
}
