// Package obstest holds shared test utilities for the observability
// stack: goroutine-leak assertions for components that spawn background
// work (block-scanner read-ahead, watchdog timers).
package obstest

import (
	"runtime"
	"testing"
	"time"
)

// Goroutines returns the current goroutine count, for pairing with
// Settle around a block of test code.
func Goroutines() int { return runtime.NumGoroutine() }

// Settle polls until the goroutine count drops back to at most base,
// failing the test with a full stack dump if it does not within five
// seconds. Polling (rather than a single check) absorbs the teardown
// lag of timer goroutines and similar.
func Settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// VerifyNoLeaks snapshots the goroutine count now and registers a
// cleanup asserting the test returns to it. Call it first thing in any
// test that starts background goroutines.
func VerifyNoLeaks(t *testing.T) {
	t.Helper()
	base := Goroutines()
	t.Cleanup(func() { Settle(t, base) })
}
