package wire

import (
	"math/rand"
	"testing"
)

// TestBackoffDeterminism: the same seed yields the same jittered
// schedule, a different seed a different one, and every delay is inside
// the equal-jitter envelope [d/2, d] with d capped.
func TestBackoffDeterminism(t *testing.T) {
	sched := func(seed int64) []uint64 {
		rng := rand.New(rand.NewSource(seed))
		var ds []uint64
		for attempt := 1; attempt <= 10; attempt++ {
			ds = append(ds, backoff(attempt, rng))
		}
		return ds
	}
	a, b, c := sched(1), sched(1), sched(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a, b)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced the identical schedule")
	}
	want := uint64(backoffBase)
	for i, d := range a {
		top := min(want, backoffCap)
		if d < top/2 || d > top {
			t.Errorf("attempt %d delay %d outside [%d, %d]", i+1, d, top/2, top)
		}
		want *= backoffMult
	}
	if last := a[len(a)-1]; last < backoffCap/2 {
		t.Errorf("attempt %d delay %d never reached the cap's envelope", len(a), last)
	}
}

// TestBreakerLifecycle walks closed → open → half-open → closed and the
// half-open → open failure path on a virtual clock.
func TestBreakerLifecycle(t *testing.T) {
	br := &breaker{}
	now := uint64(0)
	if br.state != BreakerClosed {
		t.Fatalf("initial state %v", br.state)
	}
	for i := 0; i < breakerThreshold; i++ {
		if !br.allow(now) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		br.failure(now)
	}
	if br.state != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", breakerThreshold, br.state)
	}
	if br.allow(now + breakerOpenFor - 1) {
		t.Error("open breaker admitted a request before its deadline")
	}
	// Past the deadline: exactly one probe goes through (half-open).
	if !br.allow(now + breakerOpenFor + 1) {
		t.Fatal("breaker did not half-open at its deadline")
	}
	if br.state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", br.state)
	}
	if br.allow(now + breakerOpenFor + 2) {
		t.Error("half-open breaker admitted a second concurrent probe")
	}
	// Probe failure slams it shut again with a fresh deadline.
	br.failure(now + breakerOpenFor + 10)
	if br.state != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", br.state)
	}
	if br.allow(now + 2*breakerOpenFor + 9) {
		t.Error("re-opened breaker admitted a request before its fresh deadline")
	}
	if !br.allow(now + 2*breakerOpenFor + 11) {
		t.Fatal("breaker did not re-open a probe window")
	}
	br.success()
	if br.state != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", br.state)
	}
	if !br.allow(now + 2*breakerOpenFor + 12) {
		t.Error("closed breaker refused a request")
	}
}
