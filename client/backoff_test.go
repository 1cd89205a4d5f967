package client

import (
	"testing"
	"time"
)

// TestBackoffDelayCapped checks the retry delay doubles from the base up
// to the 2s cap and stays there for every attempt a caller can configure,
// including those whose unbounded shift would overflow time.Duration.
func TestBackoffDelayCapped(t *testing.T) {
	c := New("http://sheriff.invalid", Options{})
	for n, want := range map[int]time.Duration{
		0: 100 * time.Millisecond, 1: 200 * time.Millisecond, 4: 1600 * time.Millisecond, 5: 2 * time.Second,
	} {
		if got := c.backoffDelay(n, ""); got != want {
			t.Errorf("backoffDelay(%d) = %v, want %v", n, got, want)
		}
	}
	for n := 37; n <= 62; n++ {
		if got := c.backoffDelay(n, ""); got != 2*time.Second {
			t.Errorf("backoffDelay(%d) = %v, want 2s", n, got)
		}
	}
	if got := c.backoffDelay(40, "7"); got != 7*time.Second {
		t.Errorf("Retry-After 7: backoffDelay = %v, want 7s", got)
	}
}
