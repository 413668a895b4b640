package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %q better %q", m.name, m.better)
		}
	}
}

// benchmarkFile is BENCHMARK.json's schema; unknown keys are an error.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if _, ok := fullSize[w.Name]; !ok {
			t.Errorf("workload %s is not one the benchmark runs", w.Name)
		}
	}
	if len(workloads) != len(fullSize) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %d", workloads, len(fullSize))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, catalogue %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, catalogue %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}

func TestRecoveryScheduleFollowsSeed(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, n := range []int{16, 256} {
			a, err := recoverySchedule(rand.New(rand.NewSource(seed)), n)
			if err != nil {
				t.Fatalf("seed %d, %d machines: %v", seed, n, err)
			}
			b, _ := recoverySchedule(rand.New(rand.NewSource(seed)), n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, %d machines: two draws differ", seed, n)
			}
		}
	}
	a, _ := recoverySchedule(rand.New(rand.NewSource(1)), 256)
	b, _ := recoverySchedule(rand.New(rand.NewSource(2)), 256)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 draw the same schedule")
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "0"}, &out, &errb); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("an unknown workload printed a result: %q", out.String())
	}
}

// smokeSize shrinks each workload so every path runs in seconds.
var smokeSize = map[string]size{
	"campaign":  {setups: 2, variations: 40},
	"recovery":  {setups: 2, machines: 16, minutes: 50},
	"dataplane": {setups: 2},
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"campaign", "recovery", "dataplane"} {
		for _, traced := range []bool{false, true} {
			root := t.TempDir()
			if err := copyScenario(root); err != nil {
				t.Fatal(err)
			}
			cfg := config{workload: wl, seed: 7, trace: traced, root: root, size: smokeSize[wl]}
			var out, errb bytes.Buffer
			res, err := bench(cfg, &errb)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			checkOutput(t, wl, out.String(), want)
			if errb.Len() > 0 {
				t.Errorf("%s trace=%v: %s", wl, traced, errb.String())
			}
		}
	}
}

// copyScenario gives a temporary checkout the campaign's input, so the
// traced runs write their traces there.
func copyScenario(root string) error {
	data, err := os.ReadFile("../" + campaignScenario)
	if err != nil {
		return err
	}
	dir := root + "/examples/scenarios"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(root+"/"+campaignScenario, data, 0o644)
}

// checkOutput checks the result line's schema: exactly the four keys,
// a correct run, and exactly the wanted metrics, each a number with the
// catalogue's unit.
func checkOutput(t *testing.T, wl, out string, want []metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", wl, err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("%s: result keys %v, want correct, attempted, failed, metrics", wl, keys)
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]map[string]json.RawMessage
	for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(top[k], dst); err != nil {
			t.Fatalf("%s: %s: %v", wl, k, err)
		}
	}
	if !correct || failed != 0 || attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", wl, correct, attempted, failed)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", wl, len(metrics), len(want))
	}
	for _, m := range want {
		v, ok := metrics[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", wl, m.name)
			continue
		}
		var value float64
		var unit string
		if len(v) != 2 || json.Unmarshal(v["value"], &value) != nil || json.Unmarshal(v["unit"], &unit) != nil || unit != m.unit {
			t.Errorf("%s: metric %s = %v, want a value and unit %q", wl, m.name, v, m.unit)
		}
	}
}
