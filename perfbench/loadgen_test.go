package main

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, 2*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("got %d arrivals in 2s at 1000/s", n)
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= 2*time.Second {
		t.Error("schedule is not ascending within the phase")
	}
}

// A target that stalls for 50 ms on one request must show up in the
// latency of the requests due during the stall, because the open loop
// keeps sending on schedule and times each request from its due time.
func TestOpenLoopStallInflatesLaterRequests(t *testing.T) {
	const (
		n       = 100
		gap     = time.Millisecond
		stallAt = 20
		stall   = 50 * time.Millisecond
	)
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	var mu sync.Mutex // the fake target serves one request at a time
	lat := make([]time.Duration, n)
	late := runOpenGo(sched, func(i int, due time.Time) {
		mu.Lock()
		if i == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		lat[i] = time.Since(due)
	})
	if len(late) != n {
		t.Fatalf("got %d lateness values, want %d", len(late), n)
	}
	// The stall ends no earlier than stallAt's due time plus the stall,
	// so request i waits at least the rest of it. Only lower bounds are
	// checked: a loaded machine can only make latencies longer.
	for i := stallAt + 1; i < stallAt+40; i++ {
		want := stall - time.Duration(i-stallAt)*gap
		if lat[i] < want {
			t.Errorf("request %d: latency %v, want at least %v", i, lat[i], want)
		}
	}
	for i, l := range late {
		if l < 0 {
			t.Errorf("request %d released %v before it was due", i, -l)
		}
	}
}

// A stalled connection holds back everything queued behind it in the
// pooled open loop too.
func TestOpenPoolStallInflatesLaterRequests(t *testing.T) {
	const (
		n     = 30
		gap   = time.Millisecond
		stall = 40 * time.Millisecond
	)
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * gap
	}
	lat := make([]time.Duration, n)
	runOpenPool(sched, 1, func(_, i int, due time.Time) {
		if i == 0 {
			time.Sleep(stall)
		}
		lat[i] = time.Since(due)
	})
	for i := 1; i < n; i++ {
		if want := stall - time.Duration(i)*gap; lat[i] < want {
			t.Errorf("request %d: latency %v, want at least %v", i, lat[i], want)
		}
	}
}

func TestOpenLoopReleasesOverdueRequestsTogether(t *testing.T) {
	sched := make([]time.Duration, 50) // all due at once
	var released []int
	runOpen(sched, time.Now(), func(i int, _ time.Time) { released = append(released, i) })
	if len(released) != len(sched) || !slices.IsSorted(released) {
		t.Fatalf("released %v", released)
	}
}

// Requests count as outstanding from their due time until answered; one
// answered exactly when the next falls due no longer counts.
func TestPeakOutstanding(t *testing.T) {
	ms := time.Millisecond
	p := phase{
		sched: []time.Duration{0, 1 * ms, 2 * ms, 10 * ms, 11 * ms},
		lat:   []time.Duration{5 * ms, 1 * ms, 4 * ms, 1 * ms, 1 * ms},
	}
	// At 2 ms the first and third are outstanding, the second answered at 2 ms.
	if got := peakOutstanding(p); got != 2 {
		t.Errorf("peak %d, want 2", got)
	}
	if got := peakOutstanding(phase{}); got != 0 {
		t.Errorf("empty phase: peak %d, want 0", got)
	}
}
