package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"gemini/internal/metrics"
	"gemini/internal/obs"
	"gemini/internal/parallel"
	"gemini/internal/runsim"
	"gemini/internal/simclock"
)

// CampaignOptions tune a campaign run without touching the scenario.
type CampaignOptions struct {
	// Workers bounds fan-out concurrency (0 = GOMAXPROCS). Never
	// affects results: variations land in pre-sized slots and aggregate
	// in variation order.
	Workers int
	// Variations overrides the scenario's width when positive.
	Variations int
	// Progress optionally receives live lifecycle events (one "run" =
	// one variation, covering every spec). Nil is off and costs
	// nothing; the sink is updated from worker goroutines.
	Progress *obs.Progress
	// Aggregate collects each (variation, spec) run's health registry
	// and merges them — window by window, in variation order — into
	// per-solution and campaign-wide rollups (Report.Aggregates, plus
	// the live registries behind Report.WriteAggregatedProm). Off by
	// default: the extra fields would change the report bytes existing
	// golden hashes pin.
	Aggregate bool
	// RecordRuns keeps every (variation, spec) run's scalar outcome in
	// Report.Runs — the flight recorder ranks these and replays the
	// worst offenders. Off by default, same reason as Aggregate.
	RecordRuns bool
	// Live, when non-nil, receives each run's registry as it finishes
	// (arrival order — for serving /metrics while the campaign runs,
	// not for golden files; the deterministic rollup is Aggregates).
	Live *obs.SyncRegistry
}

// Report is a campaign's aggregate result. It contains no wall-clock or
// host-dependent data, so for a fixed scenario and seed the marshalled
// report is byte-identical at any worker count; Hash seals it.
type Report struct {
	Scenario    string  `json:"scenario"`
	Description string  `json:"description,omitempty"`
	Seed        int64   `json:"seed"`
	Variations  int     `json:"variations"`
	Model       string  `json:"model"`
	Instance    string  `json:"instance"`
	Machines    int     `json:"machines"`
	Replicas    int     `json:"replicas"`
	HorizonDays float64 `json:"horizon_days"`
	// FailuresPerDay is the expected (Poisson) or exact (fixed)
	// cluster-wide background failure rate.
	FailuresPerDay float64 `json:"failures_per_day"`
	// ChaosEvents counts compiled chaos schedule entries.
	ChaosEvents int          `json:"chaos_events"`
	Specs       []SpecReport `json:"specs"`
	// Aggregates holds the cross-run metric rollups when the campaign
	// ran with Aggregate; omitted otherwise so default reports keep
	// their historical bytes.
	Aggregates *AggregateReport `json:"aggregates,omitempty"`
	// Runs holds every (variation, spec) outcome when the campaign ran
	// with RecordRuns — the flight recorder's input.
	Runs []RunRecord `json:"runs,omitempty"`
	// Hash is the SHA-256 of this report marshalled with Hash empty —
	// the campaign's deterministic fingerprint.
	Hash string `json:"hash"`

	// Merged live registries behind Aggregates (campaign-wide, then one
	// per spec in spec order). Unexported: they serve WriteAggregatedProm
	// and never enter the JSON or the hash.
	agg      *metrics.Registry
	specAggs []*metrics.Registry
}

// AggregateReport is the cross-run metric rollup: one table for the
// whole campaign and one per solution. Tables render every merged
// instrument in registration order — deterministic because each
// window's runs merge after its barrier, in variation order.
type AggregateReport struct {
	Campaign []AggregateRow  `json:"campaign"`
	Specs    []SpecAggregate `json:"specs"`
}

// SpecAggregate is one solution's rollup table.
type SpecAggregate struct {
	Name string         `json:"name"`
	Rows []AggregateRow `json:"rows"`
}

// AggregateRow is one merged instrument. Counters and gauges carry
// Value; histograms carry the distribution columns.
type AggregateRow struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
}

// aggregateRows flattens a merged registry into report rows.
func aggregateRows(reg *metrics.Registry) []AggregateRow {
	var rows []AggregateRow
	reg.Visit(func(name string, c *metrics.CounterVar, g *metrics.Gauge, h *metrics.Histogram) {
		switch {
		case c != nil:
			rows = append(rows, AggregateRow{Name: name, Kind: "counter", Value: c.Value()})
		case g != nil:
			rows = append(rows, AggregateRow{Name: name, Kind: "gauge", Value: g.Value()})
		case h != nil:
			rows = append(rows, AggregateRow{
				Name: name, Kind: "histogram",
				Count: h.Count(), Mean: h.Mean(),
				P50: h.Quantile(0.50), P99: h.Quantile(0.99),
				Max: h.Max(), Sum: h.Sum(),
			})
		}
	})
	return rows
}

// WriteAggregatedProm renders the campaign-wide merged registry in
// Prometheus text exposition format — byte-stable at any worker count.
// It errors when the campaign did not run with Aggregate (or the report
// was loaded from JSON, which does not carry the live registries).
func (r *Report) WriteAggregatedProm(w io.Writer) error {
	if r.agg == nil {
		return fmt.Errorf("scenario: report has no aggregated registry (run the campaign with Aggregate)")
	}
	return metrics.WriteProm(w, r.agg)
}

// SpecRegistry returns the merged per-solution registry for spec index
// si; nil when aggregation was off or the index is out of range.
func (r *Report) SpecRegistry(si int) *metrics.Registry {
	if si < 0 || si >= len(r.specAggs) {
		return nil
	}
	return r.specAggs[si]
}

// SpecReport aggregates one solution across all variations.
type SpecReport struct {
	Name string `json:"name"`
	// EffectiveRatio summarizes the per-variation §7.3 effective
	// training time ratio.
	EffectiveRatio Stats `json:"effective_ratio"`
	// WastedHours summarizes per-variation total wasted time.
	WastedHours Stats `json:"wasted_hours"`
	// Failures is the total failures processed across variations.
	Failures int `json:"failures"`
	// FromLocal/FromPeer/FromRemote total the recovery sources.
	FromLocal  int `json:"from_local"`
	FromPeer   int `json:"from_peer"`
	FromRemote int `json:"from_remote"`
	// InMemoryFraction is (local+peer)/total recoveries — the paper's
	// headline probability of recovering from CPU memory.
	InMemoryFraction float64 `json:"in_memory_fraction"`
}

// Stats is a JSON-friendly metrics.Summary.
type Stats struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	StdDev float64 `json:"stddev"`
}

func toStats(s metrics.Summary) Stats {
	return Stats{Mean: s.Mean, Min: s.Min, Max: s.Max, P50: s.P50, P90: s.P90, P99: s.P99, StdDev: s.StdDev}
}

// campaignWindow is how many variations run between two rollup merges.
// It bounds a campaign's live run registries to campaignWindow per spec
// at any variation count, and is wide enough that the barrier closing
// each window leaves workers idle for a small share of it.
const campaignWindow = 64

// runOutcome is one (variation, spec) run's scalar outcome.
type runOutcome struct {
	ratio                      float64
	wasted                     simclock.Duration
	fails, local, peer, remote int
}

// windowSlot is the per-run state one window position reuses from
// window to window: its schedule backings and, when the campaign
// collects metrics, one registry per spec.
type windowSlot struct {
	sched scheduleBuf
	regs  []*metrics.Registry
}

// slotPool carries window slots from one RunCampaign call to the next,
// so a warm campaign allocates no registries or schedule backings at
// all. Every registry is Reset before each run and every backing is
// truncated before each build, so what a slot held before never shows.
var slotPool sync.Pool // of *[]windowSlot

// getSlots returns n window slots, each with nregs registries.
func getSlots(n, nregs int) *[]windowSlot {
	sp, _ := slotPool.Get().(*[]windowSlot)
	if sp == nil {
		sp = new([]windowSlot)
	}
	if len(*sp) < n {
		*sp = append(*sp, make([]windowSlot, n-len(*sp))...)
	}
	for i := range *sp {
		sl := &(*sp)[i]
		for len(sl.regs) < nregs {
			sl.regs = append(sl.regs, metrics.NewRegistry())
		}
	}
	return sp
}

// RunCampaign expands the compiled scenario into its seeded variations,
// fans them across workers, and aggregates. Variation v uses failure
// seed Seed+v; results are collected into slot v and reduced in
// variation order, so the report does not depend on the worker count.
//
// Variations run in consecutive windows of campaignWindow. After each
// window's barrier its run registries merge into the rollups in
// (variation, spec) order, and the window's slots are reused by the
// next one.
func RunCampaign(ctx context.Context, c *Compiled, opts CampaignOptions) (*Report, error) {
	s := c.Scenario
	variations := s.Variations
	if opts.Variations > 0 {
		variations = opts.Variations
	}
	nspecs := len(c.Specs)
	if nspecs == 0 {
		return nil, fmt.Errorf("scenario: no specs to run")
	}

	nregs := 0
	if opts.Aggregate || opts.Live != nil {
		nregs = nspecs
	}
	simPerRun := s.Horizon.Seconds() * float64(nspecs)
	opts.Progress.Begin(variations, simPerRun)

	// Outcomes and records are flat, indexed v*nspecs+si.
	outcomes := make([]runOutcome, variations*nspecs)
	var runs []RunRecord
	if opts.RecordRuns {
		runs = make([]RunRecord, variations*nspecs)
	}
	var agg *metrics.Registry
	var specAggs []*metrics.Registry
	if opts.Aggregate {
		agg = metrics.NewRegistry()
		specAggs = make([]*metrics.Registry, nspecs)
		for si := range specAggs {
			specAggs[si] = metrics.NewRegistry()
		}
	}
	sp := getSlots(min(variations, campaignWindow), nregs)
	defer slotPool.Put(sp)
	slots := *sp

	// lo is the current window's first variation. It only changes
	// between windows, after the barrier.
	var lo int
	hooks := parallel.RunHooks{}
	if opts.Progress != nil {
		hooks.Started = func(int) { opts.Progress.RunStarted() }
		// Done fires after fn stored the variation's outcomes, so the
		// failure totals are ready to read.
		hooks.Done = func(i int) {
			fails := 0
			for _, o := range outcomes[(lo+i)*nspecs : (lo+i+1)*nspecs] {
				fails += o.fails
			}
			opts.Progress.RunDone(fails, simPerRun)
		}
	}
	run := func(i int) error {
		v, sl := lo+i, &slots[i]
		fs, err := c.scheduleInto(&sl.sched, v)
		if err != nil {
			return err
		}
		for si, spec := range c.Specs {
			cfg := runsim.Config{
				Spec:               spec,
				Machines:           s.Job.Machines,
				Failures:           fs,
				Horizon:            s.Horizon,
				ReplacementDelay:   s.Run.ReplacementDelay,
				SimultaneityWindow: s.Run.SimultaneityWindow,
			}
			if spec.UsesCPUMemory {
				cfg.Placement = c.Job.Placement
			}
			var reg *metrics.Registry
			if nregs > 0 {
				reg = sl.regs[si]
				reg.Reset()
				cfg.Obs.Metrics = reg
			}
			res, err := runsim.Run(cfg)
			if err != nil {
				return fmt.Errorf("scenario: variation %d spec %s: %w", v, spec.Name, err)
			}
			outcomes[v*nspecs+si] = runOutcome{
				ratio:  res.EffectiveRatio,
				wasted: res.TotalWasted,
				fails:  res.Failures,
				local:  res.FromLocal,
				peer:   res.FromPeer,
				remote: res.FromRemote,
			}
			if runs != nil {
				runs[v*nspecs+si] = makeRecord(v, spec.Name, res)
			}
			opts.Live.Merge(reg)
			res.Release()
		}
		return nil
	}
	for lo = 0; lo < variations; lo += campaignWindow {
		n := min(campaignWindow, variations-lo)
		if err := parallel.ForEachErrHooks(ctx, opts.Workers, n, hooks, run); err != nil {
			return nil, err
		}
		// Deterministic rollup: merge the window's run registries
		// strictly in (variation, spec) order — the resulting
		// registration order, and therefore every rendering, is
		// independent of the worker count.
		if agg != nil {
			for i := range n {
				for si, reg := range slots[i].regs[:nspecs] {
					agg.Merge(reg)
					specAggs[si].Merge(reg)
				}
			}
		}
	}

	rep := &Report{
		Scenario:    s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Variations:  variations,
		Model:       s.Job.Model,
		Instance:    c.Job.Spec.Instance,
		Machines:    s.Job.Machines,
		Replicas:    c.Job.Spec.Replicas,
		HorizonDays: s.Horizon.Seconds() / simclock.Day.Seconds(),
		ChaosEvents: len(c.Chaos),
		Runs:        runs,
		agg:         agg,
		specAggs:    specAggs,
	}
	switch s.Failures.Kind {
	case "poisson":
		rep.FailuresPerDay = c.Model.ClusterFailuresPerDay(s.Job.Machines)
	case "fixed":
		rep.FailuresPerDay = s.Failures.PerDay
	}

	ratios := make([]float64, variations)
	wastedH := make([]float64, variations)
	for si, spec := range c.Specs {
		sr := SpecReport{Name: spec.Name}
		for v := range variations {
			o := &outcomes[v*nspecs+si]
			ratios[v] = o.ratio
			wastedH[v] = o.wasted.Seconds() / 3600
			sr.Failures += o.fails
			sr.FromLocal += o.local
			sr.FromPeer += o.peer
			sr.FromRemote += o.remote
		}
		sr.EffectiveRatio = toStats(metrics.Summarize(ratios))
		sr.WastedHours = toStats(metrics.Summarize(wastedH))
		if total := sr.FromLocal + sr.FromPeer + sr.FromRemote; total > 0 {
			sr.InMemoryFraction = float64(sr.FromLocal+sr.FromPeer) / float64(total)
		}
		rep.Specs = append(rep.Specs, sr)
	}
	if agg != nil {
		ar := &AggregateReport{Campaign: aggregateRows(agg)}
		for si, spec := range c.Specs {
			ar.Specs = append(ar.Specs, SpecAggregate{Name: spec.Name, Rows: aggregateRows(specAggs[si])})
		}
		rep.Aggregates = ar
	}
	rep.Hash = rep.ComputeHash()
	return rep, nil
}

// ComputeHash returns the SHA-256 hex digest of the report marshalled
// with the Hash field empty. Verification: recompute and compare.
func (r *Report) ComputeHash() string {
	clone := *r
	clone.Hash = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		// Report marshalling cannot fail: all fields are plain data.
		panic(fmt.Sprintf("scenario: report marshal: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// JSON marshals the report indented, ready to write to disk.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
