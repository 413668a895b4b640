// The allocation gate runs without the race detector: under -race
// sync.Pool drops items at random, so the pooled generator is rebuilt
// and AllocsPerRun over-counts intermittently.
//go:build !race

package failure

import (
	"testing"

	"gemini/internal/simclock"
)

// Generate allocates its output slice and nothing else: the generator
// comes from the pool, and the output is sized up front for the draw.
// Appending into a buffer with room allocates nothing. Gated in ci.sh.
func TestGenerateAllocs(t *testing.T) {
	m := OPTModel()
	// ~36 expected events over 10 days on 240 machines.
	if _, err := m.Generate(240, 10*simclock.Day, 1); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := m.Generate(240, 10*simclock.Day, 7); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Fatalf("Generate allocates %.1f/op, want 1 (the output slice)", n)
	}
	var buf Schedule
	n = testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = m.AppendGenerate(buf[:0], 240, 10*simclock.Day, 7); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendGenerate into a warm buffer allocates %.1f/op, want 0", n)
	}
}
