// Command perfbench is the repository's end-to-end benchmark. One
// command runs one of three workloads against the simulator — a
// scenario campaign, the agent recovery control plane, or the §7
// data-plane executions — checks the simulated outputs, and prints
// every metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 1.2, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones, derived from
// wall-clock spans the benchmark records around its calls into each
// module (see metrics.go and README.md).
//
// Run it from the repository root through the launcher, which builds
// it from source:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gemini/internal/derive"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout: the campaign reads its scenario
	// from it and traced runs write their trace under it.
	root string
	size size
}

// size holds the run-length knobs. The benchmark always runs at
// fullSize; tests shrink it to smoke each workload quickly.
type size struct {
	setups     int // set-ups per run; setup_s is their median
	variations int // campaign variations per round
	machines   int // recovery cluster size
	minutes    int // recovery horizon per strategy, simulated minutes
}

var fullSize = map[string]size{
	"campaign":  {setups: 9, variations: 4000},
	"recovery":  {setups: 201, machines: 256, minutes: 50},
	"dataplane": {setups: 401},
}

// workload is one named benchmark path. rec is nil on untraced calls.
type workload interface {
	// setup builds the system from the generated inputs, cold: the
	// derivation cache is cleared first. Traced set-ups return their
	// per-layer values.
	setup(rec *recorder) (map[string]float64, error)
	// round runs the timed phase once and checks its outputs. A traced
	// round also runs the workload's direct layer probes, after the
	// timed phase.
	round(rec *recorder, chk *checker) (roundResult, error)
	// finish runs the once-per-run checks, outside any timed phase.
	finish(chk *checker) error
}

// roundResult is one timed phase.
type roundResult struct {
	wall   time.Duration
	alloc  uint64    // bytes allocated in the timed phase
	simS   float64   // simulated seconds advanced in the timed phase
	steps  []float64 // host seconds per step
	digest string    // fingerprint of the simulated outputs
	layers map[string]float64
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "campaign":
		return newCampaign(cfg)
	case "recovery":
		return newRecovery(cfg)
	case "dataplane":
		return newDataplane(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have campaign, recovery, dataplane)", cfg.workload)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "campaign, recovery or dataplane")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed rounds run")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics from a traced run")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.size = fullSize[cfg.workload]
	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checker counts the correctness checks behind failed_ratio.
type checker struct {
	attempted, failed int
	log               io.Writer
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check failed: "+format+"\n", args...)
	}
}

// result is what one invocation prints.
type result struct {
	workload string
	chk      checker
	metrics  []metric
	values   map[string]float64
	notes    []string // human-readable lines printed before the JSON
}

func bench(cfg config, stderr io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{workload: cfg.workload, values: map[string]float64{}}
	res.chk.log = stderr
	chk := &res.chk
	epoch := time.Now()
	layers := map[string][]float64{}
	var traceRecs []*recorder

	// Set-up, repeated; setup_s is the median.
	var setups []float64
	for i := 0; i < cfg.size.setups; i++ {
		var rec *recorder
		if cfg.trace {
			rec = newRecorder()
		}
		t0 := time.Now()
		lv, err := w.setup(rec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		addAll(layers, lv)
		if i == 0 && rec != nil {
			traceRecs = append(traceRecs, rec)
		}
	}
	if cfg.trace {
		// The rounds start from a cold, untraced set-up, so the first
		// round's derivation-cache hit rate is the workload's own.
		if _, err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	// Timed rounds until --seconds is spent. Untraced runs do at least
	// two, so the digest is compared; traced runs alternate untraced
	// and traced rounds, so tracing overhead is measured.
	var plain, traced []roundResult
	var digest string
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if cfg.trace && i%2 == 1 {
			rec = newRecorder()
		}
		rr, err := w.round(rec, chk)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if i == 0 {
			digest = rr.digest
			if cfg.trace {
				res.values["derive.hit_rate"] = derive.Shared().Stats().HitRate()
			}
		} else {
			chk.check(rr.digest == digest, "round %d sim_digest %s differs from round 0's %s", i, rr.digest, digest)
		}
		if rec == nil {
			plain = append(plain, rr)
		} else {
			traced = append(traced, rr)
			addAll(layers, rr.layers)
			if len(traced) == 1 {
				traceRecs = append(traceRecs, rec)
			}
		}
		elapsed := time.Since(start)
		perRound := elapsed / time.Duration(i+1)
		if i >= 1 && elapsed+perRound > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	if err := w.finish(chk); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("sim_digest %s", digest))

	if !cfg.trace {
		res.metrics = endToEnd
		var walls, rates, allocs, steps []float64
		for _, rr := range plain {
			walls = append(walls, rr.wall.Seconds())
			rates = append(rates, rr.simS/rr.wall.Seconds())
			allocs = append(allocs, float64(rr.alloc)/1e6)
			steps = append(steps, rr.steps...)
		}
		res.values["setup_s"] = median(setups)
		res.values["wall_s"] = median(walls)
		res.values["sim_s_per_host_s"] = median(rates)
		res.values["step_ms_p50"] = median(steps) * 1e3
		res.values["alloc_mb"] = median(allocs)
		res.values["peak_rss_mb"] = peakRSSMB()
		res.notes = append(res.notes, fmt.Sprintf("rounds %d, steps %d, setups %d, round walls %.4v", len(plain), len(steps), len(setups), walls))
	} else {
		res.metrics = perLayer
		for _, m := range perLayer {
			if v, ok := layers[m.name]; ok {
				res.values[m.name] = median(v)
			} else if _, ok := res.values[m.name]; !ok {
				res.values[m.name] = 0 // a layer this workload bypasses
			}
		}
		var pw, tw []float64
		for _, rr := range plain {
			pw = append(pw, rr.wall.Seconds())
		}
		for _, rr := range traced {
			tw = append(tw, rr.wall.Seconds())
		}
		res.values["bench.trace_overhead_s"] = median(tw) - median(pw)
		// One file per workload and seed; the run id inside tells runs apart.
		runID := fmt.Sprintf("%s-seed%d-pid%d", cfg.workload, cfg.seed, os.Getpid())
		path := filepath.Join(cfg.root, ".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		err := writeTrace(path, runID, cfg.workload, epoch, traceRecs)
		chk.check(err == nil, "trace: %v", err)
		res.notes = append(res.notes, fmt.Sprintf("trace %s (rounds: %d untraced, %d traced)", path, len(plain), len(traced)))
	}
	return res, nil
}

func addAll(dst map[string][]float64, src map[string]float64) {
	for k, v := range src {
		dst[k] = append(dst[k], v)
	}
}

// print writes the human-readable lines, then the JSON result line.
func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s: %s\n", r.workload, n)
	}
	ratio := float64(r.chk.failed) / float64(max(r.chk.attempted, 1))
	fmt.Fprintf(w, "%s: failed_ratio %g (%d of %d checks failed)\n", r.workload, ratio, r.chk.failed, r.chk.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.chk.failed == 0, Attempted: r.chk.attempted, Failed: r.chk.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Fprintf(w, "%s: %-34s %14.6g %s\n", r.workload, m.name, v, m.unit)
		out.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// --- measurement helpers ---

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the p-quantile by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// memStats is the allocation counters the timed phases read.
type memStats struct{ bytes, objects uint64 }

func readMem() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

// peakRSSMB is the process's peak resident set (Linux reports ru_maxrss
// in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
