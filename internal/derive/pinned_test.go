package derive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/training"
)

// derivationHash digests the derived values every run depends on — the
// averaged idle spans, iteration time and stability of the §5.4 profile,
// Algorithm 2's chunks, and the three baseline specs — by their exact
// float64 bits, so any rounding drift changes it.
func derivationHash(a *Artifacts) string {
	h := sha256.New()
	f := func(vs ...float64) {
		for _, v := range vs {
			writeUint(h, math.Float64bits(v))
		}
	}
	writeUint(h, uint64(len(a.Profile.Spans)))
	for _, s := range a.Profile.Spans {
		f(float64(s.Offset), float64(s.Length))
	}
	f(float64(a.Profile.IterationTime), a.Profile.NormalizedStdDev)
	writeUint(h, uint64(len(a.Plan.Chunks)))
	for _, c := range a.Plan.Chunks {
		writeUint(h, uint64(c.Span), uint64(c.Replica))
		f(c.Bytes)
	}
	for _, s := range []baselines.Spec{a.Gemini, a.Strawman, a.HighFreq} {
		h.Write([]byte(s.Name))
		f(float64(s.Interval), float64(s.CheckpointTime), float64(s.CompletionLag),
			float64(s.PerCheckpointStall), float64(s.SerializeOnRecovery),
			float64(s.RetrievalLocal), float64(s.RetrievalPeer), float64(s.RetrievalRemote),
			float64(s.RemoteInterval))
		if s.UsesCPUMemory {
			writeUint(h, 1)
		} else {
			writeUint(h, 0)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeUint(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// TestDerivationPinned pins derive.Build, bit for bit, for one key per
// parallelism: the chaos-10k scenario's 10 000-machine pipeline-parallel
// key, a 256-machine ZeRO-3 key and a 16-machine data-parallel key. The
// constants were captured from the copy + sort + build profiler the
// streaming recorder replaced; a change to the profile, the timelines or
// Algorithm 2 that moves any rounding fails here.
func TestDerivationPinned(t *testing.T) {
	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"chaos-10k pipeline", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 10000, Replicas: 2,
			RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.PipelineParallel},
			"6d26ba4c8cd3f34e960bbf280579fa4e21f95a1650177fe74679b67d2bbf2fb5"},
		{"zero-3 256", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 256, Replicas: 2,
			RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.ZeRO3},
			"e47bd2b62bf66ccb64cca3bbdf424baca5002fdd22ed1aa236bea586271c626b"},
		{"data-parallel 16", Key{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, Replicas: 2,
			RemoteBandwidth: baselines.DefaultRemoteBandwidth, Parallelism: training.DataParallel},
			"7ea71a64334caab20579e4d46b48dbaaa63d6a2baeef5cf20e0daeb9d263f891"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Build(tc.key)
			if err != nil {
				t.Fatal(err)
			}
			if got := derivationHash(a); got != tc.want {
				t.Fatalf("derivation hash %s, want %s (%d spans, %d chunks)",
					got, tc.want, len(a.Profile.Spans), len(a.Plan.Chunks))
			}
		})
	}
}
