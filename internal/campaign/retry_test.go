package campaign

import (
	"testing"
	"time"
)

// TestRetryDelaySchedule pins the wait before each retry of a failed
// cell: 50 ms doubling per retry up to 1.6 s, and 1.6 s for every retry
// after, however many -max-retries allows. Shifting before capping
// wrapped the delay negative at retry 39 and to 0 from retry 59, so
// those retries started at once.
func TestRetryDelaySchedule(t *testing.T) {
	want := map[int]time.Duration{
		1:  50 * time.Millisecond,
		2:  100 * time.Millisecond,
		3:  200 * time.Millisecond,
		4:  400 * time.Millisecond,
		5:  800 * time.Millisecond,
		6:  1600 * time.Millisecond,
		7:  1600 * time.Millisecond,
		39: 1600 * time.Millisecond,
		64: 1600 * time.Millisecond,
	}
	for attempt, d := range want {
		if got := retryDelay(attempt); got != d {
			t.Errorf("retryDelay(%d) = %v, want %v", attempt, got, d)
		}
	}
}
