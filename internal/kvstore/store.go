// Package kvstore is the distributed key-value store GEMINI's failure
// recovery module coordinates through (§3.2) — an etcd stand-in with the
// semantics the agents need: revisioned keys, compare-and-swap, leases
// with TTL expiry (heartbeats), prefix watches, and lease-based leader
// election for promoting a new root machine.
//
// The store is safe for concurrent use; the simulation drives it with a
// virtual clock.
package kvstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"gemini/internal/simclock"
)

// ErrUnavailable is returned by store operations while the store is inside
// an injected unavailability window (chaos testing): the etcd cluster has
// lost quorum and serves nothing. Clients are expected to retry.
var ErrUnavailable = errors.New("kvstore: store unavailable")

// LeaseID identifies a granted lease. Zero means "no lease".
type LeaseID int64

// Entry is a stored key-value pair.
type Entry struct {
	Key   string
	Value string
	// Rev is the revision at which the key was last written.
	Rev int64
	// Lease is the lease the key is attached to, if any.
	Lease LeaseID
}

// EventType distinguishes watch events.
type EventType int

const (
	// EventPut fires on creation or update.
	EventPut EventType = iota
	// EventDelete fires on explicit deletion or lease expiry.
	EventDelete
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "put"
	case EventDelete:
		return "delete"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is delivered to watchers in revision order.
type Event struct {
	Type  EventType
	Entry Entry
}

// WatchID identifies a registered watch.
type WatchID int64

type watcher struct {
	id     WatchID
	prefix string
	fn     func(Event)
}

type lease struct {
	id      LeaseID
	ttl     simclock.Duration
	expires simclock.Time
	keys    map[string]bool
	idx     int // position in Store.byExpiry
}

// StoreStats is a snapshot of the store's self-counters.
type StoreStats struct {
	// ExpirySweeps counts sweeps that expired at least one lease.
	ExpirySweeps uint64
	// LeasesExpired counts leases removed by expiry or revocation.
	LeasesExpired uint64
	// WatchDeliveries counts watch callback invocations.
	WatchDeliveries uint64
}

// Store is a revisioned, lease-aware key-value store.
type Store struct {
	mu        sync.Mutex
	now       func() simclock.Time
	rev       int64
	data      map[string]Entry
	leases    map[LeaseID]*lease
	nextLease LeaseID
	// byExpiry is an indexed min-heap of the live leases on expires, so a
	// sweep with nothing due and NextExpiry are O(1) and a renewal is
	// O(log N).
	byExpiry  []*lease
	stats     StoreStats
	watchers  []*watcher // copy-on-write; see Unwatch
	nextWatch WatchID

	// Watch events are queued under the mutex and delivered after it is
	// released, so callbacks may freely call back into the store.
	pending    []Event
	delivering bool
	deliverMu  sync.Mutex

	// Chaos controls. While down, every operation fails (reads return
	// nothing, writes return ErrUnavailable) and lease TTLs are frozen:
	// an etcd cluster that lost quorum cannot expire leases either.
	down      bool
	downSince simclock.Time
	// jitterMax > 0 adds a deterministic pseudo-random extension of up to
	// jitterMax to every lease expiry computed by Grant and KeepAlive.
	jitterMax   simclock.Duration
	jitterState uint64
}

// New creates a store whose lease clock is supplied by now. A nil now
// disables lease expiry (leases never time out).
func New(now func() simclock.Time) *Store {
	if now == nil {
		now = func() simclock.Time { return 0 }
	}
	return &Store{
		now:    now,
		data:   make(map[string]Entry),
		leases: make(map[LeaseID]*lease),
	}
}

// SetAvailable opens (up=false) or closes (up=true) an unavailability
// window. While down the store serves nothing and lease clocks freeze;
// on restore every outstanding lease expiry is shifted by the outage
// duration, so a lease that had 3s of TTL left when the outage began
// still has 3s left when it ends.
func (s *Store) SetAvailable(up bool) {
	s.mu.Lock()
	defer s.unlockFlush()
	if up == !s.down {
		return
	}
	if !up {
		s.down = true
		s.downSince = s.now()
		return
	}
	pause := s.now().Sub(s.downSince)
	s.down = false
	for _, l := range s.byExpiry {
		l.expires = l.expires.Add(pause)
	}
	for i := len(s.byExpiry)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
	s.sweepLocked()
}

// Available reports whether the store is currently serving requests.
func (s *Store) Available() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// SetLeaseJitter makes Grant and KeepAlive extend each computed lease
// expiry by a deterministic pseudo-random duration in [0, max). Zero max
// disables jitter. The seed fixes the pseudo-random sequence so chaos
// runs are reproducible.
func (s *Store) SetLeaseJitter(max simclock.Duration, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jitterMax = max
	s.jitterState = uint64(seed)
}

// jitterLocked draws the next jitter amount (SplitMix64). Callers hold s.mu.
func (s *Store) jitterLocked() simclock.Duration {
	if s.jitterMax <= 0 {
		return 0
	}
	s.jitterState += 0x9E3779B97F4A7C15
	z := s.jitterState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	frac := float64(z%(1<<20)) / float64(1<<20)
	return simclock.Duration(float64(s.jitterMax) * frac)
}

// sweepLocked expires leases due at the current instant, deleting their
// keys and emitting delete events. Callers hold s.mu.
func (s *Store) sweepLocked() {
	if s.down || len(s.byExpiry) == 0 {
		return
	}
	t := s.now()
	if s.byExpiry[0].expires > t {
		return
	}
	var expired []*lease
	for len(s.byExpiry) > 0 && s.byExpiry[0].expires <= t {
		expired = append(expired, s.popLease())
	}
	// Deterministic order for event delivery: lease id, not heap order.
	slices.SortFunc(expired, func(a, b *lease) int { return cmp.Compare(a.id, b.id) })
	s.stats.ExpirySweeps++
	s.stats.LeasesExpired += uint64(len(expired))
	for _, l := range expired {
		delete(s.leases, l.id)
		keys := make([]string, 0, len(l.keys))
		for k := range l.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if e, ok := s.data[k]; ok && e.Lease == l.id {
				delete(s.data, k)
				s.rev++
				s.notifyLocked(Event{Type: EventDelete, Entry: Entry{Key: k, Rev: s.rev, Lease: l.id}})
			}
		}
	}
}

// pushLease inserts l into the expiry heap.
func (s *Store) pushLease(l *lease) {
	l.idx = len(s.byExpiry)
	s.byExpiry = append(s.byExpiry, l)
	s.siftUp(l.idx)
}

// popLease removes and returns the lease expiring first.
func (s *Store) popLease() *lease {
	h := s.byExpiry
	n := len(h) - 1
	l := h[0]
	h[0] = h[n]
	h[0].idx = 0
	h[n] = nil
	s.byExpiry = h[:n]
	if n > 0 {
		s.siftDown(0)
	}
	l.idx = -1
	return l
}

// fixLease restores heap order after l.expires changed.
func (s *Store) fixLease(l *lease) {
	i := l.idx
	s.siftUp(i)
	if l.idx == i {
		s.siftDown(i)
	}
}

func (s *Store) siftUp(i int) {
	h := s.byExpiry
	l := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if l.expires >= h[p].expires {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = l
	l.idx = i
}

func (s *Store) siftDown(i int) {
	h := s.byExpiry
	n := len(h)
	l := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].expires < h[c].expires {
			c = r
		}
		if h[c].expires >= l.expires {
			break
		}
		h[i] = h[c]
		h[i].idx = i
		i = c
	}
	h[i] = l
	l.idx = i
}

func (s *Store) notifyLocked(ev Event) {
	s.pending = append(s.pending, ev)
}

// unlockFlush releases s.mu, then delivers the events the critical section
// queued; mutators and sweeping readers defer it. Every queuer flushes its
// own events, so with nothing queued it is a single unlock.
func (s *Store) unlockFlush() {
	queued := len(s.pending) > 0
	s.mu.Unlock()
	if queued {
		s.flush()
	}
}

// flush delivers queued events in revision order. It must be called
// without s.mu held. A single flusher drains everything, including events
// produced by the callbacks themselves, preserving order; deliverMu
// serializes flushers from different goroutines.
func (s *Store) flush() {
	s.deliverMu.Lock()
	if s.delivering {
		s.deliverMu.Unlock()
		return
	}
	s.delivering = true
	s.deliverMu.Unlock()
	var delivered uint64
	for {
		s.mu.Lock()
		s.stats.WatchDeliveries += delivered
		delivered = 0
		if len(s.pending) == 0 {
			s.mu.Unlock()
			break
		}
		ev := s.pending[0]
		s.pending = s.pending[1:]
		ws := s.watchers
		s.mu.Unlock()
		for _, w := range ws {
			if strings.HasPrefix(ev.Entry.Key, w.prefix) {
				w.fn(ev)
				delivered++
			}
		}
	}
	s.deliverMu.Lock()
	s.delivering = false
	s.deliverMu.Unlock()
	// Close the race where another goroutine queued an event and bounced
	// off the delivering flag just as this flusher drained: re-check.
	s.mu.Lock()
	again := len(s.pending) > 0
	s.mu.Unlock()
	if again {
		s.flush()
	}
}

// Rev returns the store's current revision.
func (s *Store) Rev() int64 {
	s.mu.Lock()
	defer s.unlockFlush()
	s.sweepLocked()
	return s.rev
}

// Put writes key=value, optionally attached to a lease, and returns the
// new revision. Writing to an expired or unknown lease fails.
func (s *Store) Put(key, value string, leaseID LeaseID) (int64, error) {
	if key == "" {
		return 0, fmt.Errorf("kvstore: empty key")
	}
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return 0, ErrUnavailable
	}
	s.sweepLocked()
	return s.putLocked(key, value, leaseID)
}

func (s *Store) putLocked(key, value string, leaseID LeaseID) (int64, error) {
	var l *lease
	if leaseID != 0 {
		l = s.leases[leaseID]
		if l == nil {
			return 0, fmt.Errorf("kvstore: lease %d not found", leaseID)
		}
	}
	if old, ok := s.data[key]; ok && old.Lease != 0 && old.Lease != leaseID {
		if prev := s.leases[old.Lease]; prev != nil {
			delete(prev.keys, key)
		}
	}
	s.rev++
	e := Entry{Key: key, Value: value, Rev: s.rev, Lease: leaseID}
	s.data[key] = e
	if l != nil {
		l.keys[key] = true
	}
	s.notifyLocked(Event{Type: EventPut, Entry: e})
	return s.rev, nil
}

// Get returns the entry under key.
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return Entry{}, false
	}
	s.sweepLocked()
	e, ok := s.data[key]
	return e, ok
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return false
	}
	s.sweepLocked()
	e, ok := s.data[key]
	if !ok {
		return false
	}
	if e.Lease != 0 {
		if l := s.leases[e.Lease]; l != nil {
			delete(l.keys, key)
		}
	}
	delete(s.data, key)
	s.rev++
	s.notifyLocked(Event{Type: EventDelete, Entry: Entry{Key: key, Rev: s.rev, Lease: e.Lease}})
	return true
}

// CompareAndSwap writes key=value only if the key's current revision is
// expectRev (0 means the key must not exist). It reports success and the
// new revision.
func (s *Store) CompareAndSwap(key string, expectRev int64, value string, leaseID LeaseID) (int64, bool, error) {
	if key == "" {
		return 0, false, fmt.Errorf("kvstore: empty key")
	}
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return 0, false, ErrUnavailable
	}
	s.sweepLocked()
	cur, exists := s.data[key]
	if expectRev == 0 {
		if exists {
			return 0, false, nil
		}
	} else if !exists || cur.Rev != expectRev {
		return 0, false, nil
	}
	rev, err := s.putLocked(key, value, leaseID)
	if err != nil {
		return 0, false, err
	}
	return rev, true, nil
}

// Range returns all entries whose key has the given prefix, sorted by key.
func (s *Store) Range(prefix string) []Entry {
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return nil
	}
	s.sweepLocked()
	var out []Entry
	for k, e := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Grant creates a lease with the given TTL.
func (s *Store) Grant(ttl simclock.Duration) (LeaseID, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("kvstore: lease TTL must be positive, got %v", ttl)
	}
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return 0, ErrUnavailable
	}
	s.sweepLocked()
	s.nextLease++
	id := s.nextLease
	l := &lease{id: id, ttl: ttl, expires: s.now().Add(ttl + s.jitterLocked()), keys: make(map[string]bool)}
	s.leases[id] = l
	s.pushLease(l)
	return id, nil
}

// KeepAlive renews a lease's TTL — the heartbeat primitive. Renewing an
// expired or unknown lease fails, exactly like etcd: the client must
// re-grant and re-put its keys.
func (s *Store) KeepAlive(id LeaseID) error {
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return ErrUnavailable
	}
	s.sweepLocked()
	l := s.leases[id]
	if l == nil {
		return fmt.Errorf("kvstore: lease %d not found (expired?)", id)
	}
	l.expires = s.now().Add(l.ttl + s.jitterLocked())
	s.fixLease(l)
	return nil
}

// Revoke drops a lease immediately, deleting its keys.
func (s *Store) Revoke(id LeaseID) {
	s.mu.Lock()
	defer s.unlockFlush()
	if s.down {
		return
	}
	l := s.leases[id]
	if l == nil {
		return
	}
	l.expires = s.now() // expire now
	s.fixLease(l)
	s.sweepLocked()
}

// LeaseRemaining returns the time until a lease expires, and whether the
// lease exists. While the store is down lease clocks are frozen, so the
// remaining TTL is the one the lease had when the outage began.
func (s *Store) LeaseRemaining(id LeaseID) (simclock.Duration, bool) {
	s.mu.Lock()
	defer s.unlockFlush()
	s.sweepLocked()
	l := s.leases[id]
	if l == nil {
		return 0, false
	}
	if s.down {
		return l.expires.Sub(s.downSince), true
	}
	return l.expires.Sub(s.now()), true
}

// NextExpiry returns the earliest lease expiry time, or simclock.Forever
// when no leases exist. Simulation drivers schedule a sweep then.
func (s *Store) NextExpiry() simclock.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || len(s.byExpiry) == 0 {
		return simclock.Forever
	}
	return s.byExpiry[0].expires
}

// Stats snapshots the store's self-counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Sweep expires due leases eagerly (delivering watch events); drivers
// call it from a scheduled event at NextExpiry.
func (s *Store) Sweep() {
	s.mu.Lock()
	defer s.unlockFlush()
	s.sweepLocked()
}

// Watch registers fn for events on keys with the given prefix. The
// callback runs synchronously on the goroutine of the mutating operation,
// after the store's lock is released, so it may call back into the store;
// events those calls produce are delivered after the current one, in
// revision order.
func (s *Store) Watch(prefix string, fn func(Event)) WatchID {
	if fn == nil {
		panic("kvstore: nil watch callback")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextWatch++
	s.watchers = append(s.watchers, &watcher{id: s.nextWatch, prefix: prefix, fn: fn})
	return s.nextWatch
}

// Unwatch cancels a watch. It replaces the watcher list instead of editing
// it in place, so a flush iterating the old list after dropping s.mu is
// unaffected; Watch only appends past every length a flush has read.
func (s *Store) Unwatch(id WatchID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, w := range s.watchers {
		if w.id == id {
			s.watchers = slices.Concat(s.watchers[:i], s.watchers[i+1:])
			return
		}
	}
}
