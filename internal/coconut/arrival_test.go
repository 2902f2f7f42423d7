package coconut

import (
	"testing"
	"time"
)

func TestUniformArrivalGaps(t *testing.T) {
	gaps := UniformArrival{}.Gaps(10*time.Millisecond, 1)
	for i := 0; i < 5; i++ {
		if g := gaps(); g != 10*time.Millisecond {
			t.Fatalf("gap %d = %v, want 10ms", i, g)
		}
	}
}

func TestPoissonArrivalPreservesMeanRate(t *testing.T) {
	const mean = 10 * time.Millisecond
	gaps := PoissonArrival{}.Gaps(mean, 42)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		g := gaps()
		if g < 0 {
			t.Fatal("negative gap")
		}
		sum += g
	}
	got := float64(sum) / n
	if got < 0.9*float64(mean) || got > 1.1*float64(mean) {
		t.Fatalf("mean gap = %v, want within 10%% of %v", time.Duration(got), mean)
	}
}

func TestPoissonArrivalDeterministicPerSeed(t *testing.T) {
	a := PoissonArrival{}.Gaps(time.Millisecond, 7)
	b := PoissonArrival{}.Gaps(time.Millisecond, 7)
	c := PoissonArrival{}.Gaps(time.Millisecond, 8)
	same, diff := true, false
	for i := 0; i < 100; i++ {
		ga, gb, gc := a(), b(), c()
		if ga != gb {
			same = false
		}
		if ga != gc {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different gap streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical gap streams")
	}
}

func TestBurstArrivalShapeAndMeanRate(t *testing.T) {
	const mean = 5 * time.Millisecond
	sched := BurstArrival{Size: 4}
	gaps := sched.Gaps(mean, 0)
	// Expect three back-to-back sends then one idle of 4*mean, repeating.
	var window [8]time.Duration
	var sum time.Duration
	for i := range window {
		window[i] = gaps()
		sum += window[i]
	}
	for i, g := range window {
		if (i+1)%4 == 0 {
			if g != 4*mean {
				t.Fatalf("gap %d = %v, want idle %v", i, g, 4*mean)
			}
		} else if g != 0 {
			t.Fatalf("gap %d = %v, want 0 (inside burst)", i, g)
		}
	}
	if got := sum / 8; got != mean {
		t.Fatalf("mean gap = %v, want %v", got, mean)
	}
	if sched.Name() != "burst:4" {
		t.Fatalf("Name = %q", sched.Name())
	}
}

func TestArrivalByName(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "uniform"},
		{"uniform", "uniform"},
		{"poisson", "poisson"},
		{"burst", "burst:10"},
		{"burst:50", "burst:50"},
	} {
		s, err := ArrivalByName(tc.in)
		if err != nil {
			t.Fatalf("ArrivalByName(%q): %v", tc.in, err)
		}
		if s.Name() != tc.want {
			t.Fatalf("ArrivalByName(%q).Name() = %q, want %q", tc.in, s.Name(), tc.want)
		}
	}
	for _, bad := range []string{"unknown", "burst:1", "burst:x"} {
		if _, err := ArrivalByName(bad); err == nil {
			t.Fatalf("ArrivalByName(%q) accepted", bad)
		}
	}
}

// TestClientPoissonArrivalStaysRateLimited checks a randomized schedule
// still respects the configured long-run rate through the client pacer.
func TestClientPoissonArrivalStaysRateLimited(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       100, // ~30 expected over 300ms
		Arrival:         PoissonArrival{},
		ArrivalSeed:     42,
		WorkloadThreads: 4,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	sent := runPhase(c).expectedOps
	if sent > 90 {
		t.Fatalf("sent %d transactions in 300ms at RL=100 (Poisson pacer unbounded)", sent)
	}
	if sent < 5 {
		t.Fatalf("sent only %d transactions (Poisson pacer stalled)", sent)
	}
}

// TestClientBurstArrivalDelivers checks the burst schedule flows end to end
// through the client at the configured mean rate.
func TestClientBurstArrivalDelivers(t *testing.T) {
	d := newFakeDriver()
	c := testClient(t, d, nil, RunConfig{
		RateLimit:       200,
		Arrival:         BurstArrival{Size: 10},
		WorkloadThreads: 2,
		SendDuration:    300 * time.Millisecond,
		ListenGrace:     20 * time.Millisecond,
	})
	s := runPhase(c)
	if s.expectedOps == 0 {
		t.Fatal("burst schedule sent nothing")
	}
	// 200/s over 300ms ≈ 60 mean sends; allow burst-quantized headroom (one
	// extra full burst plus warm start).
	if s.expectedOps > 95 {
		t.Fatalf("sent %d transactions (burst schedule ignores mean rate)", s.expectedOps)
	}
	if s.receivedOps != s.expectedOps {
		t.Fatalf("%d of %d burst sends confirmed by the fake driver, want all", s.receivedOps, s.expectedOps)
	}
}
