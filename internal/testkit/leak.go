package testkit

import (
	"runtime"
	"testing"
	"time"
)

// NoLeaks records the goroutine count and, after every later cleanup
// (servers stopped, routers closed, clients idle), waits up to 2 s for
// the count to return to it. Call it first in the test, so its cleanup
// runs last. It counts the whole process's goroutines, so it must not
// guard a test that runs in parallel with others.
func NoLeaks(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines still running, %d before the test:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
