package core

import (
	"testing"

	"gemini/internal/schedule"
)

// BenchmarkExecuteSchemes runs all five §7.4 interleaving schemes
// (Baseline, Blocking, Naive, NoPipeline, GEMINI) for GPT-2 100B on 64
// p4d machines through the netsim flow engine and the training
// executor — the workload perfbench's dataplane round times end to end.
// Naive is the OOM path and returns before simulating.
func BenchmarkExecuteSchemes(b *testing.B) {
	j, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := schedule.SchemeBaseline; s <= schedule.SchemeGemini; s++ {
			if _, err := j.ExecuteScheme(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
