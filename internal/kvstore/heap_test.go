package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gemini/internal/simclock"
)

// refStore is a brute-force model of the store's lease semantics: every
// sweep and NextExpiry scans all leases, as the store did before its
// expiry heap. It models only what the differential test drives.
type refStore struct {
	now       func() simclock.Time
	rev       int64
	data      map[string]Entry
	leases    map[LeaseID]*refLease
	nextLease LeaseID
	events    []Event
	down      bool
	downSince simclock.Time
	jitterMax simclock.Duration
	jitterSt  uint64
}

type refLease struct {
	ttl     simclock.Duration
	expires simclock.Time
	keys    map[string]bool
}

func newRefStore(now func() simclock.Time) *refStore {
	return &refStore{now: now, data: map[string]Entry{}, leases: map[LeaseID]*refLease{}}
}

func (r *refStore) jitter() simclock.Duration {
	if r.jitterMax <= 0 {
		return 0
	}
	r.jitterSt += 0x9E3779B97F4A7C15
	z := r.jitterSt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return simclock.Duration(float64(r.jitterMax) * (float64(z%(1<<20)) / float64(1<<20)))
}

func (r *refStore) sweep() {
	if r.down {
		return
	}
	var ids []LeaseID
	for id, l := range r.leases {
		if l.expires <= r.now() {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		l := r.leases[id]
		delete(r.leases, id)
		var keys []string
		for k := range l.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if e, ok := r.data[k]; ok && e.Lease == id {
				delete(r.data, k)
				r.rev++
				r.events = append(r.events, Event{Type: EventDelete, Entry: Entry{Key: k, Rev: r.rev, Lease: id}})
			}
		}
	}
}

func (r *refStore) nextExpiry() simclock.Time {
	if r.down {
		return simclock.Forever
	}
	earliest := simclock.Forever
	for _, l := range r.leases {
		earliest = min(earliest, l.expires)
	}
	return earliest
}

func (r *refStore) setAvailable(up bool) {
	if up == !r.down {
		return
	}
	if !up {
		r.down, r.downSince = true, r.now()
		return
	}
	pause := r.now().Sub(r.downSince)
	r.down = false
	for _, l := range r.leases {
		l.expires = l.expires.Add(pause)
	}
	r.sweep()
}

func (r *refStore) grant(ttl simclock.Duration) (LeaseID, error) {
	if r.down {
		return 0, ErrUnavailable
	}
	r.sweep()
	r.nextLease++
	r.leases[r.nextLease] = &refLease{ttl: ttl, expires: r.now().Add(ttl + r.jitter()), keys: map[string]bool{}}
	return r.nextLease, nil
}

func (r *refStore) keepAlive(id LeaseID) error {
	if r.down {
		return ErrUnavailable
	}
	r.sweep()
	l := r.leases[id]
	if l == nil {
		return errors.New("not found")
	}
	l.expires = r.now().Add(l.ttl + r.jitter())
	return nil
}

func (r *refStore) revoke(id LeaseID) {
	if r.down {
		return
	}
	if l := r.leases[id]; l != nil {
		l.expires = r.now()
		r.sweep()
	}
}

func (r *refStore) put(key, value string, id LeaseID) (int64, error) {
	if r.down {
		return 0, ErrUnavailable
	}
	r.sweep()
	var l *refLease
	if id != 0 {
		if l = r.leases[id]; l == nil {
			return 0, errors.New("not found")
		}
	}
	if old, ok := r.data[key]; ok && old.Lease != 0 && old.Lease != id {
		if prev := r.leases[old.Lease]; prev != nil {
			delete(prev.keys, key)
		}
	}
	r.rev++
	e := Entry{Key: key, Value: value, Rev: r.rev, Lease: id}
	r.data[key] = e
	if l != nil {
		l.keys[key] = true
	}
	r.events = append(r.events, Event{Type: EventPut, Entry: e})
	return r.rev, nil
}

func (r *refStore) leaseRemaining(id LeaseID) (simclock.Duration, bool) {
	r.sweep()
	l := r.leases[id]
	if l == nil {
		return 0, false
	}
	if r.down {
		return l.expires.Sub(r.downSince), true
	}
	return l.expires.Sub(r.now()), true
}

// TestLeaseHeapMatchesScanReference drives the heap-backed store and the
// scan reference through the same seeded sequence of grants, renewals,
// revocations, puts, outages, jitter changes and clock advances, and
// requires identical NextExpiry after every step and an identical watch
// event stream.
func TestLeaseHeapMatchesScanReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			clk := &fakeClock{}
			s := New(clk.now)
			ref := newRefStore(clk.now)
			var got []Event
			s.Watch("", func(ev Event) { got = append(got, ev) })
			rng := rand.New(rand.NewSource(seed))
			var ids []LeaseID
			pick := func() LeaseID {
				if len(ids) == 0 || rng.Intn(10) == 0 {
					return LeaseID(rng.Intn(5) + 1000) // unknown lease
				}
				return ids[rng.Intn(len(ids))]
			}
			ttl := func() simclock.Duration {
				// Coarse TTLs make exact expiry ties common.
				return simclock.Duration(1 + rng.Intn(8))
			}
			for step := 0; step < 3000; step++ {
				var op string
				switch k := rng.Intn(100); {
				case k < 15:
					op = "grant"
					d := ttl()
					a, errA := s.Grant(d)
					b, errB := ref.grant(d)
					if a != b || (errA == nil) != (errB == nil) {
						t.Fatalf("step %d grant: store (%d, %v), reference (%d, %v)", step, a, errA, b, errB)
					}
					if errA == nil {
						ids = append(ids, a)
					}
				case k < 45:
					op = "keepalive"
					id := pick()
					errA, errB := s.KeepAlive(id), ref.keepAlive(id)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("step %d keepalive %d: store %v, reference %v", step, id, errA, errB)
					}
				case k < 50:
					op = "revoke"
					id := pick()
					s.Revoke(id)
					ref.revoke(id)
				case k < 65:
					op = "put"
					key := fmt.Sprintf("k%02d", rng.Intn(24))
					var id LeaseID
					if rng.Intn(4) != 0 {
						id = pick()
					}
					a, errA := s.Put(key, fmt.Sprint(step), id)
					b, errB := ref.put(key, fmt.Sprint(step), id)
					if a != b || (errA == nil) != (errB == nil) {
						t.Fatalf("step %d put %s on %d: store (%d, %v), reference (%d, %v)", step, key, id, a, errA, b, errB)
					}
				case k < 68:
					op = "outage"
					up := rng.Intn(2) == 0
					s.SetAvailable(up)
					ref.setAvailable(up)
				case k < 70:
					op = "jitter"
					max, seed := simclock.Duration(rng.Intn(3)), rng.Int63()
					s.SetLeaseJitter(max, seed)
					ref.jitterMax, ref.jitterSt = max, uint64(seed)
				case k < 75:
					op = "remaining"
					id := pick()
					a, okA := s.LeaseRemaining(id)
					b, okB := ref.leaseRemaining(id)
					if a != b || okA != okB {
						t.Fatalf("step %d remaining %d: store (%v, %v), reference (%v, %v)", step, id, a, okA, b, okB)
					}
				case k < 80:
					op = "sweep"
					s.Sweep()
					ref.sweep()
				default:
					op = "advance"
					clk.t += simclock.Time(rng.Intn(4)) * 0.5
				}
				if a, b := s.NextExpiry(), ref.nextExpiry(); a != b {
					t.Fatalf("step %d (%s): NextExpiry store %v, reference %v", step, op, a, b)
				}
				if len(got) != len(ref.events) {
					t.Fatalf("step %d (%s): %d watch events, reference %d", step, op, len(got), len(ref.events))
				}
			}
			for i := range got {
				if got[i] != ref.events[i] {
					t.Fatalf("event %d: store %+v, reference %+v", i, got[i], ref.events[i])
				}
			}
			if s.Rev() != ref.rev || len(got) == 0 {
				t.Fatalf("rev %d vs reference %d after %d events", s.Rev(), ref.rev, len(got))
			}
		})
	}
}

// TestStoreStatsExactCounts pins the self-counters on a hand-counted run.
func TestStoreStatsExactCounts(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	deliveries := 0
	s.Watch("hb/", func(Event) { deliveries++ })
	s.Watch("hb/a", func(Event) { deliveries++ })
	a, _ := s.Grant(5)
	b, _ := s.Grant(5)
	c, _ := s.Grant(9)
	_, _ = s.Put("hb/a", "1", a) // both watchers: 2 deliveries
	_, _ = s.Put("hb/b", "1", b) // 1 delivery
	_, _ = s.Put("other", "1", c)
	clk.t = 4
	s.Sweep() // nothing due: not counted
	clk.t = 5
	s.Sweep() // a and b expire in one sweep: 3 more deliveries
	s.Revoke(c)
	want := StoreStats{ExpirySweeps: 2, LeasesExpired: 3, WatchDeliveries: 6}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	if deliveries != 6 {
		t.Fatalf("callbacks ran %d times, counter says 6", deliveries)
	}
}

// BenchmarkLeaseKeepAlive measures one heartbeat round — every live
// lease renewed once — at N leases. With the expiry heap a renewal is
// O(log N), so the round is O(N log N) rather than O(N²).
func BenchmarkLeaseKeepAlive(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			clk := &fakeClock{}
			s := New(clk.now)
			ids := make([]LeaseID, n)
			for i := range ids {
				ids[i], _ = s.Grant(15)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clk.t += 5
				for _, id := range ids {
					if err := s.KeepAlive(id); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
