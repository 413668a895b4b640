package agent

import (
	"fmt"
	"testing"

	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// BenchmarkControlPlaneScale runs one hardware-failure recovery over 30
// training iterations at growing machine counts. Heartbeats dominate the
// event count (one per machine every HeartbeatInterval), so this is the
// control plane's scaling curve: near-linear in N once a heartbeat is
// O(log N).
func BenchmarkControlPlaneScale(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				engine := simclock.NewEngine()
				clus := cluster.MustNew(n, cluster.MustInstance("p4d.24xlarge"), engine.Now)
				ck := ckpt.MustNewEngine(placement.MustMixed(n, 2), 75e9)
				op := cloud.MustNewOperator(engine, cloud.DefaultConfig())
				sys, err := NewSystem(engine, clus, ck, op, DefaultOptions(iterTime))
				if err != nil {
					b.Fatal(err)
				}
				sys.SetRemoteEvery(10)
				sys.Start()
				engine.At(simclock.Time(5*iterTime+10), func() {
					sys.InjectFailure(n/2, cluster.HardwareFailed)
				})
				engine.Run(simclock.Time(30 * iterTime))
				if sys.Recoveries() != 1 {
					b.Fatalf("%d recoveries, want 1", sys.Recoveries())
				}
				events += engine.Stats().Fired
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
