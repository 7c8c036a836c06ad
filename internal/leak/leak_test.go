package leak

import (
	"testing"
	"time"
)

func TestSettleReapsFinishedGoroutines(t *testing.T) {
	base := Snapshot()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() { <-done }()
	}
	if err := Settle(base, 50*time.Millisecond); err == nil {
		t.Fatal("Settle reported clean while 8 goroutines were parked")
	}
	close(done)
	if err := Settle(base, 2*time.Second); err != nil {
		t.Fatalf("goroutines exited but Settle still failed: %v", err)
	}
	Check(t, base)
}

// failRecorder captures Errorf calls so Check's failure path is testable.
type failRecorder struct{ failed bool }

func (f *failRecorder) Helper()               {}
func (f *failRecorder) Errorf(string, ...any) { f.failed = true }

// TestCheckFlagsLeak: Settle errs while a goroutine is parked, and the error
// reaches the recorder. The baseline is the test's own goroutine and the
// test binary's main one, both alive throughout, so the count cannot reach it
// while the parked goroutine lives, however many goroutines of earlier tests
// exit meanwhile. A baseline taken by Snapshot would count such a goroutine
// still exiting, and a loaded host lets the count reach it when that one
// goes.
func TestCheckFlagsLeak(t *testing.T) {
	const base = 2
	done := make(chan struct{})
	go func() { <-done }()
	defer close(done)

	rec := &failRecorder{}
	if err := Settle(base, 30*time.Millisecond); err == nil {
		t.Fatal("expected a leak error")
	} else {
		rec.Errorf("%v", err)
	}
	if !rec.failed {
		t.Fatal("recorder did not observe the failure")
	}
}
