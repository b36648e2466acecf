package main

import (
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule draws the due offsets of a Poisson arrival process at
// rate requests per second over d: exponential gaps, precomputed so the
// generator does no random-number work while it runs.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return due
		}
		due = append(due, off)
	}
}

// runOpen is the open-loop generator. It wakes at each due time and
// releases every request that is due by then, so a late wake-up
// releases a burst instead of drifting the whole schedule. release must
// not block: it hands request i, due at the given instant, to whatever
// serves it. runOpen returns how late each request was released.
func runOpen(sched []time.Duration, start time.Time, release func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(sched))
	for next := 0; next < len(sched); {
		el := time.Since(start)
		for next < len(sched) && sched[next] <= el {
			late[next] = el - sched[next]
			release(next, start.Add(sched[next]))
			next++
		}
		if next < len(sched) {
			if wait := sched[next] - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
	}
	return late
}

// runOpenGo runs an open loop with one goroutine per in-flight request:
// call serves request i and returns when it is answered. It waits for
// every request before returning the release lateness.
func runOpenGo(sched []time.Duration, call func(i int, due time.Time)) []time.Duration {
	var wg sync.WaitGroup
	late := runOpen(sched, time.Now(), func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(i, due)
		}()
	})
	wg.Wait()
	return late
}

// runOpenPool runs an open loop through a fixed set of senders, as a
// client holding that many connections does: due requests wait in a
// FIFO for a free sender, and that wait counts in their latency because
// call times each request from its due instant.
func runOpenPool(sched []time.Duration, senders int, call func(sender, i int, due time.Time)) []time.Duration {
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the schedule so the generator never blocks on a release.
	jobs := make(chan job, len(sched))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				call(s, j.i, j.due)
			}
		}()
	}
	late := runOpen(sched, time.Now(), func(i int, due time.Time) { jobs <- job{i, due} })
	close(jobs)
	wg.Wait()
	return late
}

// runClosed runs clients closed-loop callers until d elapses: each sends
// its next request only when the previous one has been answered.
// call receives the client index and that client's request sequence
// number.
func runClosed(clients int, d time.Duration, call func(client, seq int)) {
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; time.Now().Before(stop); seq++ {
				call(c, seq)
			}
		}()
	}
	wg.Wait()
}
