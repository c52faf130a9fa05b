package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// heapWatch samples runtime.MemStats in the background and keeps the
// highest HeapInuse seen — the number the out-of-core memory guard in
// scripts/check.sh compares against its committed budget. Sampling every
// 20ms bounds the stop-the-world cost while still catching the ingest and
// partition peaks, which last much longer than one interval.
type heapWatch struct {
	stop chan struct{}
	once sync.Once
	done chan struct{}
	high atomic.Uint64
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > w.high.Load() {
				w.high.Store(ms.HeapInuse)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// Stop takes a final sample and returns the high-water HeapInuse in bytes.
// Calls after the first return the same value.
func (w *heapWatch) Stop() uint64 {
	w.once.Do(func() { close(w.stop) })
	<-w.done
	return w.high.Load()
}
