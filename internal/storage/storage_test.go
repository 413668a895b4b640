package storage

import (
	"math"
	"testing"
	"testing/quick"

	"gemini/internal/netsim"
	"gemini/internal/simclock"
)

const gbps = 1e9 / 8

func TestMemoryStorePutGetDelete(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 400, Iteration: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 500, Iteration: 2}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s.Used() != 900 || s.Len() != 2 {
		t.Fatalf("used=%v len=%d", s.Used(), s.Len())
	}
	obj, ok := s.Get("a")
	if !ok || obj.Iteration != 1 {
		t.Fatalf("Get(a) = %+v, %v", obj, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get invented an object")
	}
	s.Delete("a")
	if s.Used() != 500 || s.Len() != 1 {
		t.Fatalf("after delete used=%v len=%d", s.Used(), s.Len())
	}
	s.Delete("missing") // no-op
}

func TestMemoryStoreCapacityEnforced(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 800}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 300}); err == nil {
		t.Fatal("over-capacity Put accepted")
	}
	// Replacing the same key counts the delta, not the sum.
	if err := s.Put(Object{Key: "a", Bytes: 900}); err != nil {
		t.Fatalf("in-place grow rejected: %v", err)
	}
	if s.Used() != 900 {
		t.Fatalf("used %v, want 900", s.Used())
	}
	if err := s.Put(Object{Key: "c", Bytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestMemoryStoreWipe(t *testing.T) {
	s := MustNewMemoryStore(100)
	if err := s.Put(Object{Key: "a", Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	s.Wipe()
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatal("wipe left residue")
	}
}

func TestMemoryStoreKeysSorted(t *testing.T) {
	s := MustNewMemoryStore(100)
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put(Object{Key: k, Bytes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v, want sorted [a b c]", keys)
	}
}

func TestNewMemoryStoreRejectsNegative(t *testing.T) {
	if _, err := NewMemoryStore(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// remoteFixture builds 2 machines + storage node fabric with fast NICs
// and a slow store, the shape of the paper's testbed.
func remoteFixture(t *testing.T) (*simclock.Engine, *netsim.Fabric, *RemoteStore) {
	t.Helper()
	e := simclock.NewEngine()
	fab := netsim.MustNewFabric(e, 3, netsim.Config{EgressBytesPerSec: 400 * gbps})
	rs, err := NewRemoteStore(e, fab, 2, 20*gbps)
	if err != nil {
		t.Fatalf("NewRemoteStore: %v", err)
	}
	return e, fab, rs
}

func TestRemoteStoreWriteReadTiming(t *testing.T) {
	e, _, rs := remoteFixture(t)
	const size = 25e9 // 25 GB at 20 Gbps = 10 s
	var wrote simclock.Time
	rs.Write(0, Object{Key: "ckpt/1", Bytes: size, Iteration: 1}, func() { wrote = e.Now() })
	e.RunAll()
	if want := size / (20 * gbps); math.Abs(float64(wrote)-want) > 1e-6 {
		t.Fatalf("write finished at %v, want %v", wrote, want)
	}
	if !rs.Has("ckpt/1") {
		t.Fatal("object missing after write")
	}
	var read simclock.Time
	rs.Read("ckpt/1", 1, func(obj Object, ok bool) {
		if !ok || obj.Iteration != 1 {
			t.Errorf("read got %+v, %v", obj, ok)
		}
		read = e.Now()
	})
	e.RunAll()
	if want := float64(wrote) + size/(20*gbps); math.Abs(float64(read)-want) > 1e-6 {
		t.Fatalf("read finished at %v, want %v", read, want)
	}
}

func TestRemoteStoreAggregateBandwidthShared(t *testing.T) {
	// Two machines upload simultaneously: the 20 Gbps store ingress is the
	// bottleneck, so each upload takes twice as long as alone.
	e, _, rs := remoteFixture(t)
	const size = 25e9
	var done []simclock.Time
	for src := 0; src < 2; src++ {
		rs.Write(src, Object{Key: "k" + string(rune('0'+src)), Bytes: size}, func() {
			done = append(done, e.Now())
		})
	}
	e.RunAll()
	want := 2 * size / (20 * gbps)
	for _, d := range done {
		if math.Abs(float64(d)-want) > 1e-3 {
			t.Fatalf("shared upload finished at %v, want %v", d, want)
		}
	}
}

func TestRemoteStoreReadMissingKey(t *testing.T) {
	e, _, rs := remoteFixture(t)
	called := false
	rs.Read("absent", 0, func(_ Object, ok bool) {
		called = true
		if ok {
			t.Error("missing key read ok")
		}
	})
	e.RunAll()
	if !called {
		t.Fatal("callback for missing key never fired")
	}
}

func TestRemoteStoreUploadVisibleOnlyOnCompletion(t *testing.T) {
	e, _, rs := remoteFixture(t)
	rs.Write(0, Object{Key: "ckpt", Bytes: 1e9, Iteration: 1}, nil)
	e.RunAll()
	// The second upload takes 20 s; halfway through, readers still see
	// the first version.
	var done bool
	rs.Write(0, Object{Key: "ckpt", Bytes: 50e9, Iteration: 2}, func() { done = true })
	e.Run(e.Now().Add(10))
	if obj, ok := rs.Lookup("ckpt"); done || !ok || obj.Iteration != 1 {
		t.Fatalf("mid-upload store holds %+v (done=%v), want the intact iteration-1 object", obj, done)
	}
	e.RunAll()
	if obj, ok := rs.Lookup("ckpt"); !done || !ok || obj.Iteration != 2 {
		t.Fatalf("after upload store holds %+v (done=%v), want iteration 2", obj, done)
	}
}

func TestRemoteStoreDeleteAndKeys(t *testing.T) {
	e, _, rs := remoteFixture(t)
	rs.Write(0, Object{Key: "b", Bytes: 1}, nil)
	rs.Write(0, Object{Key: "a", Bytes: 1}, nil)
	e.RunAll()
	keys := rs.Keys()
	if len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("Keys = %v", keys)
	}
	rs.Delete("a")
	if rs.Has("a") {
		t.Fatal("deleted key still present")
	}
	if rs.Node() != 2 {
		t.Fatalf("Node = %d, want 2", rs.Node())
	}
}

func TestNewRemoteStoreRejectsBadBandwidth(t *testing.T) {
	e := simclock.NewEngine()
	fab := netsim.MustNewFabric(e, 2, netsim.Config{EgressBytesPerSec: 1})
	if _, err := NewRemoteStore(e, fab, 1, 0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

// Property: MemoryStore used-bytes always equals the sum of stored object
// sizes and never exceeds capacity, across random op sequences.
func TestPropertyMemoryStoreAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNewMemoryStore(10000)
		for _, op := range ops {
			key := string(rune('a' + op%7))
			size := float64(op % 4000)
			switch (op / 7) % 3 {
			case 0, 1:
				_ = s.Put(Object{Key: key, Bytes: size})
			case 2:
				s.Delete(key)
			}
			var sum float64
			for _, k := range s.Keys() {
				obj, _ := s.Get(k)
				sum += obj.Bytes
			}
			if math.Abs(sum-s.Used()) > 1e-9 || s.Used() > s.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
