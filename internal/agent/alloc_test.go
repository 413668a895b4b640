// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package agent

import (
	"testing"

	"gemini/internal/cloud"
)

// TestHeartbeatTickAllocsZero pins the heartbeat hot path: a steady
// round of worker ticks — ticker fire, lease renewal and sweep re-aim —
// allocates nothing. Training is not started, so the only events are
// the heartbeats and the persistent sweep event.
func TestHeartbeatTickAllocsZero(t *testing.T) {
	const n = 64
	f := newFixture(t, n, 2, cloud.DefaultConfig())
	s := f.sys
	s.workers = make([]*worker, n)
	for rank := range s.workers {
		s.startWorker(rank, 0)
	}
	s.scheduleSweep()
	hb := s.opts.HeartbeatInterval
	f.engine.Run(f.engine.Now().Add(2 * hb))
	fired := f.engine.Stats().Fired
	allocs := testing.AllocsPerRun(50, func() { f.engine.Run(f.engine.Now().Add(hb)) })
	if allocs != 0 {
		t.Fatalf("a heartbeat round of %d workers allocated %v objects, want 0", n, allocs)
	}
	if got := f.engine.Stats().Fired - fired; got != 51*n {
		t.Fatalf("%d events fired over 51 rounds, want %d heartbeats", got, 51*n)
	}
	if st := s.store.Stats(); st.LeasesExpired != 0 {
		t.Fatalf("%d leases expired under steady heartbeats", st.LeasesExpired)
	}
}
