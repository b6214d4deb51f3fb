// Package backoff computes the one retry delay schedule phasekit uses:
// the fleet's store retrier and the wire client's reconnect loop both
// wait Delay between attempts, each drawing jitter from its own
// deterministic source.
package backoff

import "time"

// Delay returns the delay before retry attempt k (0-based): base
// doubled k times and capped at max (a shift that overflows lands on
// the cap too), then jittered over [d/2, d] by one word from rand.
// rand is called only when d/2 > 0, so a seeded caller's schedule is
// reproducible and its random stream advances once per jittered delay.
func Delay(base, max time.Duration, k int, rand func() uint64) time.Duration {
	d := base << uint(k)
	if d <= 0 || d > max {
		d = max
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(rand()%uint64(half+1))
	}
	return d
}
