package main

import (
	"sync"
	"time"
)

// openLoopResult is what one open-loop run observed, indexed by request.
type openLoopResult struct {
	// done[i] is when request i completed; zero if it failed.
	done []time.Time
	// late[i] is how long after its due time the generator handed request
	// i to the workers: the generator's own health, not the system's.
	late   []time.Duration
	failed int
}

// dueAt is the schedule of an open loop: request i is due at
// start + i·interval whatever happened to the requests before it.
func dueAt(start time.Time, interval time.Duration, i int) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// runOpenLoop issues n requests on the dueAt schedule. One pacing
// goroutine hands each request to the workers at its due time and never
// waits for the system under test; workers (one per client connection)
// execute them in order. A request is timed from its due time, so a
// stalled system charges the wait to every request queued behind the
// stall. It returns when every request has completed.
func runOpenLoop(start time.Time, interval time.Duration, n, workers int, do func(i int) error) openLoopResult {
	res := openLoopResult{done: make([]time.Time, n), late: make([]time.Duration, n)}
	// Sized to the whole run so the pacer never blocks on a stalled worker;
	// blocking would turn the open loop into a closed one.
	queue := make(chan int, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(i)
				now := time.Now()
				mu.Lock()
				if err != nil {
					res.failed++
				} else {
					res.done[i] = now
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := dueAt(start, interval, i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = max(time.Since(due), 0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}
