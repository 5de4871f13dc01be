package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// Two plans with the same seed must fire the exact same schedule; a
// different seed must diverge somewhere over a long check sequence.
func TestPlanDeterministic(t *testing.T) {
	sites := []Site{SiteNodeStart, SiteEmit, SiteExchange, SiteStage, SiteRestore}
	schedule := func(seed int64) []bool {
		p := NewPlan(seed, 0.3)
		var fired []bool
		for round := 0; round < 3; round++ {
			for _, s := range sites {
				for node := 0; node < 8; node++ {
					for part := 0; part < 4; part++ {
						fired = append(fired, p.Check(s, node, part) != nil)
					}
				}
			}
		}
		return fired
	}
	a, b, c := schedule(42), schedule(42), schedule(43)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at check %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical %d-check schedules", len(a))
	}
}

func TestPlanMaxPerKey(t *testing.T) {
	p := NewPlan(7, 1) // rate 1: every eligible occurrence fires
	if err := p.Check(SiteEmit, 1, 0); err == nil {
		t.Fatal("rate-1 plan did not fire on first check")
	}
	for i := 0; i < 5; i++ {
		if err := p.Check(SiteEmit, 1, 0); err != nil {
			t.Fatalf("key fired again after maxPerKey exhausted (check %d): %v", i+2, err)
		}
	}
	if err := p.Check(SiteEmit, 1, 1); err == nil {
		t.Fatal("distinct partition key should have its own budget")
	}
	if got := p.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestPlanNilAndZeroRate(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Check(SiteEmit, 0, 0); err != nil {
		t.Fatalf("nil plan fired: %v", err)
	}
	if n := nilPlan.Injected(); n != 0 {
		t.Fatalf("nil plan Injected() = %d", n)
	}
	p := NewPlan(1, 0)
	for i := 0; i < 100; i++ {
		if err := p.Check(SiteNodeStart, i, 0); err != nil {
			t.Fatalf("zero-rate plan fired: %v", err)
		}
	}
}

func TestPlanSiteFilter(t *testing.T) {
	p := NewPlan(9, 1, WithSites(SiteExchange))
	if err := p.Check(SiteEmit, 0, 0); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
	if err := p.Check(SiteExchange, 0, 0); err == nil {
		t.Fatal("armed site did not fire at rate 1")
	}
}

func TestInjectedTyped(t *testing.T) {
	p := NewPlan(3, 1, WithKind(Permanent))
	err := p.Check(SiteExchange, 4, 2)
	if err == nil {
		t.Fatal("rate-1 plan did not fire")
	}
	wrapped := fmt.Errorf("engine: activity 4: %w", err)
	var inj *Injected
	if !errors.As(wrapped, &inj) {
		t.Fatalf("errors.As failed on %v", wrapped)
	}
	if inj.Site != SiteExchange || inj.Node != 4 || inj.Part != 2 || inj.Kind != Permanent {
		t.Fatalf("attribution wrong: %+v", inj)
	}
	if inj.Transient() {
		t.Fatal("permanent fault reports Transient() = true")
	}
	for _, want := range []string{"permanent", "exchange", "node 4", "partition 2"} {
		if !contains(inj.Error(), want) {
			t.Fatalf("error %q missing %q", inj.Error(), want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		seed int64
		rate float64
		ok   bool
	}{
		{"42:0.05", 42, 0.05, true},
		{"-7:1", -7, 1, true},
		{"0:0", 0, 0, true},
		{"42", 0, 0, false},
		{"x:0.5", 0, 0, false},
		{"42:high", 0, 0, false},
		{"42:1.5", 0, 0, false},
		{"42:-0.1", 0, 0, false},
	}
	for _, c := range cases {
		seed, rate, err := ParseSpec(c.spec)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSpec(%q) err = %v, want ok=%v", c.spec, err, c.ok)
		}
		if c.ok && (seed != c.seed || rate != c.rate) {
			t.Fatalf("ParseSpec(%q) = (%d, %v), want (%d, %v)", c.spec, seed, rate, c.seed, c.rate)
		}
	}
}

// Backoff must replay exactly for a fixed seed and differ across seeds.
func TestBackoffDeterministic(t *testing.T) {
	p1 := Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 11}
	p2 := Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 11}
	p3 := Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: 12}
	same := true
	for a := 1; a <= 8; a++ {
		if p1.Backoff(a) != p2.Backoff(a) {
			t.Fatalf("same seed: Backoff(%d) diverged", a)
		}
		if p1.Backoff(a) != p3.Backoff(a) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 11 and 12 produced identical jitter sequences")
	}
}

// The schedule grows exponentially, jitters within [d/2, d), and never
// exceeds the configured ceiling.
func TestBackoffCapsAtCeiling(t *testing.T) {
	p := Policy{MaxAttempts: 40, BaseDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond, Seed: 99}
	for a := 1; a <= 40; a++ {
		d := p.Backoff(a)
		raw := p.BaseDelay << (a - 1)
		if a > 5 || raw > p.MaxDelay { // 1ms·2^4 = 16ms hits the cap at attempt 5
			raw = p.MaxDelay
		}
		if d < raw/2 || d >= raw {
			t.Fatalf("Backoff(%d) = %v outside [%v, %v)", a, d, raw/2, raw)
		}
		if d >= p.MaxDelay {
			t.Fatalf("Backoff(%d) = %v reached ceiling %v", a, d, p.MaxDelay)
		}
	}
	// Huge attempt numbers must not overflow into negative durations.
	unc := Policy{MaxAttempts: 100, BaseDelay: time.Second, Seed: 1}
	if d := unc.Backoff(90); d < 0 {
		t.Fatalf("uncapped Backoff(90) overflowed: %v", d)
	}
	if d := (Policy{MaxAttempts: 3, Seed: 1}).Backoff(2); d != 0 {
		t.Fatalf("zero BaseDelay should mean zero backoff, got %v", d)
	}
}

// Permanent errors must return after exactly one call: the budget is for
// transient faults only.
func TestDoPermanentShortCircuits(t *testing.T) {
	p := Policy{MaxAttempts: 6, Seed: 2}
	calls := 0
	perm := &Injected{Site: SiteStage, Node: 3, Kind: Permanent}
	err := p.Do(context.Background(), func() error {
		calls++
		return fmt.Errorf("wrap: %w", perm)
	}, nil)
	if calls != 1 {
		t.Fatalf("permanent error consumed %d attempts, want 1", calls)
	}
	var inj *Injected
	if !errors.As(err, &inj) || inj.Kind != Permanent {
		t.Fatalf("typed permanent error lost: %v", err)
	}
}

func TestDoRetriesTransientUntilSuccess(t *testing.T) {
	p := Policy{MaxAttempts: 6, Seed: 2}
	calls := 0
	var retries []int
	err := p.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return &Injected{Site: SiteEmit, Node: 1, Kind: Transient, Occurrence: calls - 1}
		}
		return nil
	}, func(attempt int, _ time.Duration, cause error) {
		retries = append(retries, attempt)
		if !IsTransient(cause) {
			t.Errorf("onRetry saw non-transient cause %v", cause)
		}
	})
	if err != nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want nil after 3", err, calls)
	}
	if len(retries) != 2 || retries[0] != 2 || retries[1] != 3 {
		t.Fatalf("onRetry attempts = %v, want [2 3]", retries)
	}
}

func TestDoBudgetExhausted(t *testing.T) {
	p := Policy{MaxAttempts: 4, Seed: 2}
	calls := 0
	err := p.Do(context.Background(), func() error {
		calls++
		return &Injected{Site: SiteNodeStart, Node: 0, Kind: Transient}
	}, nil)
	if calls != 4 {
		t.Fatalf("budget of 4 consumed %d calls", calls)
	}
	var inj *Injected
	if !errors.As(err, &inj) {
		t.Fatalf("exhausted budget lost the typed error: %v", err)
	}
}

func TestDoZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	err := (Policy{}).Do(context.Background(), func() error {
		calls++
		return &Injected{Kind: Transient}
	}, nil)
	if calls != 1 || err == nil {
		t.Fatalf("zero policy: %d calls, err %v; want 1 call and the error", calls, err)
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&Injected{Kind: Transient}, true},
		{fmt.Errorf("a: %w", &Injected{Kind: Transient}), true},
		{&Injected{Kind: Permanent}, false},
		{errors.New("plain"), false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("b: %w", context.Canceled), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Fatalf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestDoRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Policy{MaxAttempts: 5, BaseDelay: time.Hour, Seed: 3}
	calls := 0
	err := p.Do(ctx, func() error {
		calls++
		return &Injected{Kind: Transient}
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do under cancelled ctx = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("cancelled Do made %d calls, want 1", calls)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
