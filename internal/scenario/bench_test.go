package scenario

import (
	"os"
	"testing"

	"gemini/internal/derive"
)

// BenchmarkScenarioCompile measures a cold Parse + Compile of the chaos
// scenario at 10k and 100k machines. The shared derivation cache is
// cleared before every op, so each one pays the full derivation — the
// timeline, the 20-iteration §5.4 profile, Algorithm 2 and the baseline
// specs — which is what a fresh campaign process pays once per key.
func BenchmarkScenarioCompile(b *testing.B) {
	for _, bc := range []struct{ name, path string }{
		{"10k", "../../examples/scenarios/chaos-10k.yaml"},
		{"100k", "../../examples/scenarios/chaos-100k.yaml"},
	} {
		data, err := os.ReadFile(bc.path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				derive.Shared().Clear()
				s, err := Parse(data)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Compile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
