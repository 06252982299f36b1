package retry

import (
	"math/rand"
	"testing"
	"time"
)

func TestDelayGrowsExponentiallyAndCaps(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// A huge attempt count must not overflow past the cap.
	if got := p.Delay(10_000, nil); got != 2*time.Second {
		t.Errorf("Delay(10000) = %v, want cap %v", got, 2*time.Second)
	}
}

func TestDelayJitterBoundsAndSpread(t *testing.T) {
	p := Policy{Base: time.Second, Max: time.Minute}
	rng := rand.New(rand.NewSource(42))
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		d := p.Delay(2, rng) // nominal 4s, jittered ±20%
		lo, hi := 3200*time.Millisecond, 4800*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 100 {
		t.Errorf("jitter produced only %d distinct delays in 200 draws", len(seen))
	}
}

func TestDelayJitterNeverExceedsMax(t *testing.T) {
	p := Policy{Base: time.Second, Max: 4 * time.Second}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if d := p.Delay(9, rng); d > p.Max {
			t.Fatalf("delay %v exceeds Max %v", d, p.Max)
		}
	}
}

func TestZeroValueDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.Base != 500*time.Millisecond || p.Max != time.Minute {
		t.Errorf("zero-value defaults = %+v", p)
	}
	// The zero-value policy must produce sane delays out of the box.
	if d := (Policy{}).Delay(0, nil); d != 500*time.Millisecond {
		t.Errorf("zero-value Delay(0) = %v", d)
	}
}

func TestMaxBelowBaseClampsToBase(t *testing.T) {
	p := Policy{Base: time.Second, Max: 100 * time.Millisecond}
	if d := p.Delay(0, nil); d != time.Second {
		t.Errorf("Delay(0) = %v, want Base %v when Max < Base", d, time.Second)
	}
}

func TestClampBoundsSuggestedDelay(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second}
	cases := []struct {
		suggested, want time.Duration
	}{
		{500 * time.Millisecond, 500 * time.Millisecond}, // inside the cap: taken verbatim
		{time.Hour, time.Second},                         // above Max: the client's cap wins
		{0, 10 * time.Millisecond},                       // absent hint: fall back to Base
		{-time.Second, 10 * time.Millisecond},            // nonsense hint: fall back to Base
	}
	for _, c := range cases {
		if got := p.Clamp(c.suggested); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.suggested, got, c.want)
		}
	}
	// The zero-value policy clamps to its defaults.
	if got := (Policy{}).Clamp(time.Hour); got != time.Minute {
		t.Errorf("zero-value Clamp(1h) = %v, want default Max 1m", got)
	}
}

// within reports whether d is nominal jittered by at most ±20%.
func within(d, nominal time.Duration) bool {
	return d >= nominal*8/10 && d <= nominal*12/10
}

func TestBackoffAdvanceAndReset(t *testing.T) {
	b := New(Policy{Base: 10 * time.Millisecond, Max: time.Second}, 1)
	if d := b.Next(); !within(d, 10*time.Millisecond) {
		t.Fatalf("first Next = %v", d)
	}
	if d := b.Next(); !within(d, 20*time.Millisecond) {
		t.Fatalf("second Next = %v", d)
	}
	b.Reset()
	if d := b.Next(); !within(d, 10*time.Millisecond) {
		t.Fatalf("Next after Reset = %v, want %v ±20%%", d, 10*time.Millisecond)
	}
}

func TestBackoffConcurrentUse(t *testing.T) {
	b := New(Policy{}, 1)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				b.Next()
				b.Reset()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
}
