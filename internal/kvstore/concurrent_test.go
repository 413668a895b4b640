package kvstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWatchersAndHeartbeats drives the store from several
// goroutines at once: some Put and KeepAlive under their own leases
// while others register and cancel watches. Run under -race it
// pins the copy-on-write watcher list (flush iterates a snapshot taken
// under the lock while Watch and Unwatch replace it) and unlockFlush
// (every event is delivered even though empty critical sections skip
// flush). A watcher present throughout must see every put exactly once,
// in revision order, and callbacks must never overlap: the plain
// counters below are only safe because flushers hand off under a lock.
func TestConcurrentWatchersAndHeartbeats(t *testing.T) {
	const (
		writers  = 4
		churners = 3
		rounds   = 300
	)
	s := New(nil)
	var seen int
	var lastRev int64
	ordered := true
	s.Watch("hb/", func(ev Event) {
		if ev.Entry.Rev <= lastRev {
			ordered = false
		}
		lastRev = ev.Entry.Rev
		seen++
	})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id, err := s.Grant(1)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < rounds; i++ {
				if _, err := s.Put(fmt.Sprintf("hb/%d/%d", w, i%8), "x", id); err != nil {
					t.Error(err)
					return
				}
				if err := s.KeepAlive(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := s.Watch("hb/", func(Event) {})
				s.Rev()
				s.Unwatch(id)
			}
		}()
	}
	wg.Wait()

	if want := writers * rounds; seen != want {
		t.Fatalf("persistent watcher saw %d puts, want %d", seen, want)
	}
	if !ordered {
		t.Fatal("watch events arrived out of revision order")
	}
	if st := s.Stats(); st.WatchDeliveries < uint64(seen) {
		t.Fatalf("WatchDeliveries %d below the persistent watcher's %d", st.WatchDeliveries, seen)
	}
}
