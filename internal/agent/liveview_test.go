package agent

import (
	"strconv"
	"strings"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// TestLiveViewMatchesRange checks the watch-fed live view against the
// store itself: after every event of a run with crashes, a partition, a
// store outage and lease jitter, the live ranks are exactly the ranks
// whose heartbeat keys Range returns, and liveCount is their number.
func TestLiveViewMatchesRange(t *testing.T) {
	const n = 32
	f := newChaosFixture(t, n, 2, chaosOpts(), cloud.Config{Standby: 4, StandbyActivation: 10 * simclock.Second})
	s := f.sys
	s.Start()
	s.SetLeaseJitter(3 * simclock.Second)
	at := func(iters float64, fn func()) { f.engine.At(simclock.Time(iters*float64(iterTime)), fn) }
	at(2.2, func() { s.InjectFailure(3, cluster.SoftwareFailed) })
	at(4.5, func() { s.InjectFailure(17, cluster.HardwareFailed) })
	at(9.1, func() { s.StartPartition(5, 6) })
	at(9.6, func() { s.HealPartition() })
	at(14.3, func() { s.SetKVAvailable(false) })
	at(14.4, func() { s.InjectFailure(29, cluster.SoftwareFailed) })
	at(16.3, func() { s.SetKVAvailable(true) })
	// The root and its neighbour at once: a failover mid-recovery.
	at(20.7, func() { s.InjectCorrelated(cluster.HardwareFailed, 0, 1) })

	horizon := simclock.Time(60 * iterTime)
	minLive := n
	for f.engine.PeekTime() <= horizon && f.engine.Step() {
		minLive = min(minLive, s.liveCount)
		if !s.store.Available() {
			continue
		}
		want := make([]bool, n)
		wantCount := 0
		for _, e := range s.Store().Range(hbPrefix) {
			rank, err := strconv.Atoi(strings.TrimPrefix(e.Key, hbPrefix))
			if err != nil {
				t.Fatalf("t=%v: unparsable heartbeat key %q", f.engine.Now(), e.Key)
			}
			want[rank] = true
			wantCount++
		}
		for rank := range want {
			if s.live[rank] != want[rank] {
				t.Fatalf("t=%v: live[%d] = %v, store has key: %v", f.engine.Now(), rank, s.live[rank], want[rank])
			}
		}
		if s.liveCount != wantCount {
			t.Fatalf("t=%v: liveCount %d, store holds %d heartbeat keys", f.engine.Now(), s.liveCount, wantCount)
		}
	}
	if s.Recoveries() < 3 {
		t.Fatalf("%d recoveries, want at least 3: the faults did not exercise the view", s.Recoveries())
	}
	if minLive > n-2 {
		t.Fatalf("the live view never lost two ranks at once (min %d of %d)", minLive, n)
	}
	if s.liveCount != n {
		t.Fatalf("%d of %d ranks live at the horizon", s.liveCount, n)
	}
}

// TestTrainingFalseDuringRecovery pins Training() to its doc comment:
// it turns false when the root detects a failure and true again when
// training resumes.
func TestTrainingFalseDuringRecovery(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	var flips []simclock.Time
	training := f.sys.Training()
	if !training {
		t.Fatal("not training after Start")
	}
	for f.engine.PeekTime() <= simclock.Time(30*iterTime) && f.engine.Step() {
		if got := f.sys.Training(); got != training {
			training = got
			flips = append(flips, f.engine.Now())
		}
	}
	evs := f.sys.WastedEvents()
	if len(evs) != 1 {
		t.Fatalf("%d recoveries, want 1", len(evs))
	}
	if len(flips) != 2 || flips[0] != evs[0].Detected || flips[1] != evs[0].Resumed {
		t.Fatalf("Training() flipped at %v, want false at detection %v and true at resume %v",
			flips, evs[0].Detected, evs[0].Resumed)
	}
	if !training {
		t.Fatal("not training after recovery")
	}
}
