package sim

import (
	"sync"
	"testing"
	"time"
)

// TestConcurrentDrawsAreRaceFree pins the fix for the shared-*rand.Rand
// race: every random draw goes through the scheduler's mutex, so concurrent
// draws (and draws racing the event loop) are safe. Run with -race.
func TestConcurrentDrawsAreRaceFree(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			_ = s.Uint32()
			_ = s.Float64()
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = s.Uint32()
				_ = s.Int63n(10)
				_ = s.Uniform(time.Millisecond, time.Second)
			}
		}()
	}
	s.Run()
	wg.Wait()
}

// TestConcurrentSchedulingIsRaceFree hammers At/Cancel/When/Now/Pending
// from many goroutines while another goroutine drives Step, so events fire
// and their structs are recycled while handles to them are being made. A
// handle must pin its own event's generation: every event never cancelled
// fires exactly once. Run with -race.
func TestConcurrentSchedulingIsRaceFree(t *testing.T) {
	const goroutines, perG = 4, 200
	s := New(2)
	var fired [goroutines][perG]int
	stop := make(chan struct{})
	drove := make(chan struct{})
	go func() {
		defer close(drove)
		for {
			select {
			case <-stop:
				return
			default:
				s.Step()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				at := time.Duration(g*perG+i) * time.Microsecond
				timer := s.At(at, func() { fired[g][i]++ })
				if timer.When() < at {
					t.Errorf("timer %d/%d: When %v before its deadline %v", g, i, timer.When(), at)
				}
				if i%3 == 0 {
					timer.Cancel()
				}
				_ = s.Now()
				_ = s.Pending()
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-drove
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("%d events left after Run", s.Pending())
	}
	for g := range fired {
		for i, n := range fired[g] {
			if i%3 == 0 && n <= 1 {
				continue // cancelled, possibly after it fired
			}
			if n != 1 {
				t.Errorf("event %d/%d fired %d times, want 1", g, i, n)
			}
		}
	}
}
