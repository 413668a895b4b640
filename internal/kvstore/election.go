package kvstore

import "fmt"

// Election is lease-based leader election over a single key, the
// mechanism GEMINI uses to promote a worker machine to root when the root
// machine fails (§3.2). The leader holds the election key under its
// lease; when its heartbeats stop, the lease expires, the key vanishes,
// and the next campaigner wins.
type Election struct {
	store *Store
	key   string
}

// NewElection creates an election over the given key.
func NewElection(store *Store, key string) (*Election, error) {
	if key == "" {
		return nil, fmt.Errorf("kvstore: empty election key")
	}
	return &Election{store: store, key: key}, nil
}

// Campaign attempts to become leader using the candidate's lease. It
// succeeds if no live leader holds the key, or if the candidate already
// is the leader (re-campaigning is idempotent).
func (e *Election) Campaign(candidate string, leaseID LeaseID) (bool, error) {
	if candidate == "" {
		return false, fmt.Errorf("kvstore: empty candidate name")
	}
	if leaseID == 0 {
		return false, fmt.Errorf("kvstore: election requires a lease")
	}
	cur, ok := e.store.Get(e.key)
	if !ok {
		_, won, err := e.store.CompareAndSwap(e.key, 0, candidate, leaseID)
		return won, err
	}
	if cur.Value == candidate {
		// Refresh ownership under the (possibly new) lease.
		_, won, err := e.store.CompareAndSwap(e.key, cur.Rev, candidate, leaseID)
		return won, err
	}
	return false, nil
}

// Leader returns the current leader, if any.
func (e *Election) Leader() (string, bool) {
	cur, ok := e.store.Get(e.key)
	if !ok {
		return "", false
	}
	return cur.Value, true
}
