// Package core assembles the GEMINI system out of its parts: given a
// training job (model × instance type × machine count) and a replica
// count, it derives the checkpoint placement (Algorithm 1), profiles the
// iteration timeline, partitions checkpoint traffic (Algorithm 2), and
// exposes the solution specs, the interference executor, the long-run
// failure simulator, and the live agent-based recovery system. The public
// gemini package is a thin veneer over this one.
package core

import (
	"fmt"

	"gemini/internal/agent"
	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/derive"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/runsim"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/tensor"
	"gemini/internal/trace"
	"gemini/internal/training"
)

// JobSpec names a training job in user terms.
type JobSpec struct {
	// Model is a Table 2 name, e.g. "GPT-2 100B".
	Model string
	// Instance is a Table 1 name, e.g. "p4d.24xlarge".
	Instance string
	// Machines is the cluster size N.
	Machines int
	// Replicas is the checkpoint replica count m (default 2).
	Replicas int
	// RemoteBandwidth is the persistent store's aggregate bandwidth
	// (default 20 Gbps, the paper's FSx setup).
	RemoteBandwidth float64
	// Parallelism selects the distribution strategy (default ZeRO-3, the
	// paper's setting; data-parallel and pipeline-parallel are the §9
	// future-work extensions).
	Parallelism training.Parallelism
	// Faults is an optional chaos schedule armed against the recovery
	// system: crashes, correlated failures, partitions, stragglers, store
	// outages. Build one with chaos.NewBuilder.
	Faults chaos.Schedule
	// Strategy names the checkpoint strategy the recovery system runs
	// ("gemini", "tiered", "sparse", "adaptive"; default gemini). The
	// name is resolved against the strategy registry at job construction
	// and instantiated fresh per RecoverySystem call.
	Strategy string
	// Tracer, when set, is attached to every run the job starts: the
	// interference executor's tracks and the recovery control plane's
	// spans both land on it. Nil leaves tracing disabled and free.
	Tracer *trace.Tracer
	// Metrics, when set, receives every run's instruments: training.*
	// from the executor, health.* and strategy.* from the control plane.
	// Nil leaves monitoring disabled and free.
	Metrics *metrics.Registry
	// NoCache opts this job out of the shared derivation cache: every
	// artifact (placement, timeline, profile, plan, baselines) is built
	// fresh and privately owned. The escape hatch for callers that want
	// isolation from cross-job sharing; results are bit-identical either
	// way.
	NoCache bool
}

func (j JobSpec) withDefaults() JobSpec {
	if j.Replicas == 0 {
		j.Replicas = 2
	}
	if j.RemoteBandwidth == 0 {
		j.RemoteBandwidth = baselines.DefaultRemoteBandwidth
	}
	return j
}

// Job is a fully derived GEMINI deployment for one training job.
type Job struct {
	Spec      JobSpec
	Config    training.Config
	Placement *placement.Placement
	Timeline  *training.Timeline
	Profile   *profile.Profile
	Plan      *schedule.Plan
	Costs     tensor.CostModel

	specGemini, specStrawman, specHighFreq baselines.Spec
}

// CacheKey returns the derivation-cache key for a spec: exactly the
// fields the derivation pipeline reads. Faults, strategy, observability
// sinks, and NoCache configure runs, not derivations, so they do not
// appear.
func (j JobSpec) CacheKey() derive.Key {
	j = j.withDefaults()
	return derive.Key{
		Model:           j.Model,
		Instance:        j.Instance,
		Machines:        j.Machines,
		Replicas:        j.Replicas,
		RemoteBandwidth: j.RemoteBandwidth,
		Parallelism:     j.Parallelism,
	}
}

// NewJob derives everything from a job spec. The derivation pipeline
// (placement, timeline, profile, plan, cost model, baseline specs) is a
// pure function of the spec's CacheKey fields and is resolved through
// the shared content-keyed cache: a warm key does zero derivation work
// and the resulting artifacts are shared read-only across jobs. Set
// JobSpec.NoCache to build privately instead.
func NewJob(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.Faults.Validate(spec.Machines); err != nil {
		return nil, err
	}
	if spec.Strategy != "" {
		if _, err := strategy.New(spec.Strategy); err != nil {
			return nil, err
		}
	}
	var art *derive.Artifacts
	var err error
	if spec.NoCache {
		art, err = derive.Build(spec.CacheKey())
	} else {
		art, err = derive.Shared().Get(spec.CacheKey())
	}
	if err != nil {
		return nil, err
	}
	return &Job{
		Spec:         spec,
		Config:       art.Config,
		Placement:    art.Placement,
		Timeline:     art.Timeline,
		Profile:      art.Profile,
		Plan:         art.Plan,
		Costs:        art.Costs,
		specGemini:   art.Gemini,
		specStrawman: art.Strawman,
		specHighFreq: art.HighFreq,
	}, nil
}

// MustNewJob is NewJob for known-good specs.
func MustNewJob(spec JobSpec) *Job {
	j, err := NewJob(spec)
	if err != nil {
		panic(err)
	}
	return j
}

// GeminiSpec returns GEMINI's checkpointing behavior for the job.
func (j *Job) GeminiSpec() baselines.Spec { return j.specGemini }

// StrawmanSpec returns the three-hourly remote baseline.
func (j *Job) StrawmanSpec() baselines.Spec { return j.specStrawman }

// HighFreqSpec returns the saturate-the-remote-store baseline.
func (j *Job) HighFreqSpec() baselines.Spec { return j.specHighFreq }

// RecoveryProbability returns the probability that GEMINI recovers from
// CPU memory when k machines fail simultaneously, by exact enumeration
// for small clusters and Monte Carlo beyond.
func (j *Job) RecoveryProbability(k int) float64 {
	if j.Placement.N <= 31 {
		return placement.BitmaskProbability(j.Placement, k)
	}
	return placement.MonteCarlo(j.Placement, k, 200_000, 1)
}

// ExecuteScheme runs the interference executor with one of the §7.4
// schemes, attaching the job's observability surface (JobSpec.Tracer,
// JobSpec.Metrics) when present. The fluid executor models the ZeRO-3
// traffic pattern; for the other parallelisms use the analytic plan
// (Job.Plan) instead.
func (j *Job) ExecuteScheme(s schedule.Scheme) (*training.ExecResult, error) {
	opts, err := j.execOptions(s)
	if err != nil {
		return nil, err
	}
	return training.Execute(j.Config, opts)
}

// ExecuteSchemeWithBuffers is ExecuteScheme with an explicit reserved
// GPU buffer size R and sub-buffer count p — the pipeline-depth ablation.
func (j *Job) ExecuteSchemeWithBuffers(s schedule.Scheme, bufferBytes float64, parts int) (*training.ExecResult, error) {
	opts, err := j.execOptions(s)
	if err != nil {
		return nil, err
	}
	opts.BufferBytes = bufferBytes
	opts.BufferParts = parts
	return training.Execute(j.Config, opts)
}

// execOptions builds the executor options for a scheme over the job's
// derived placement, timeline and profile, with its tracer and metrics.
func (j *Job) execOptions(s schedule.Scheme) (training.ExecOptions, error) {
	if j.Spec.Parallelism != training.ZeRO3 {
		return training.ExecOptions{}, fmt.Errorf("core: the interference executor supports ZeRO-3 only, job uses %v", j.Spec.Parallelism)
	}
	opts := training.DefaultExecOptions(j.Placement, s)
	opts.Timeline = j.Timeline
	opts.Profile = j.Profile
	opts.Tracer = j.Spec.Tracer
	opts.Metrics = j.Spec.Metrics
	return opts, nil
}

// SimulateRun plays a failure schedule against a solution spec and
// returns the effective-training-time accounting of §7.3.
func (j *Job) SimulateRun(spec baselines.Spec, fs failure.Schedule, horizon simclock.Duration,
	replacementDelay simclock.Duration) (*runsim.Result, error) {
	return runsim.Run(runsim.Config{
		Spec:             spec,
		Placement:        j.Placement,
		Machines:         j.Spec.Machines,
		Failures:         fs,
		Horizon:          horizon,
		ReplacementDelay: replacementDelay,
	})
}

// SimulateRunScaled is SimulateRun with the placement rebuilt over a
// different cluster size — the Fig. 15b methodology, where the testbed's
// measured overheads are kept while the failure frequency scales with N.
func (j *Job) SimulateRunScaled(spec baselines.Spec, machines int, fs failure.Schedule,
	horizon simclock.Duration, replacementDelay simclock.Duration) (*runsim.Result, error) {
	plc, err := placement.Mixed(machines, j.Spec.Replicas)
	if err != nil {
		return nil, err
	}
	return runsim.Run(runsim.Config{
		Spec:             spec,
		Placement:        plc,
		Machines:         machines,
		Failures:         fs,
		Horizon:          horizon,
		ReplacementDelay: replacementDelay,
	})
}

// RecoverySystem assembles the live agent-based control plane for the
// job on a fresh simulation engine. The spec's checkpoint strategy is
// instantiated fresh and installed, its tracer and metrics registry are
// attached, and if the spec carries a fault schedule it is armed
// against the system before the engine runs.
func (j *Job) RecoverySystem(cloudCfg cloud.Config) (*simclock.Engine, *agent.System, error) {
	engine := simclock.NewEngine()
	clus, err := cluster.New(j.Spec.Machines, j.Config.Instance, engine.Now)
	if err != nil {
		return nil, nil, err
	}
	ck, err := ckpt.NewEngine(j.Placement, j.Config.ShardBytesPerMachine())
	if err != nil {
		return nil, nil, err
	}
	op, err := cloud.NewOperator(engine, cloudCfg)
	if err != nil {
		return nil, nil, err
	}
	opts := agent.DefaultOptions(j.Timeline.Iteration)
	opts.RetrievalPeerBandwidth = j.Config.Instance.NetworkBytesPerSec
	opts.RetrievalRemoteBandwidth = j.Spec.RemoteBandwidth
	opts.SerializeTime = j.Costs.SerializeTime(2 * j.Config.ShardBytesPerMachine())
	sys, err := agent.NewSystem(engine, clus, ck, op, opts)
	if err != nil {
		return nil, nil, err
	}
	if name := j.Spec.Strategy; name != "" {
		st, err := strategy.New(name)
		if err != nil {
			return nil, nil, err
		}
		sys.SetStrategy(st)
	}
	if j.Spec.Tracer != nil {
		sys.SetTracer(j.Spec.Tracer)
	}
	if j.Spec.Metrics != nil {
		sys.SetMetrics(j.Spec.Metrics)
	}
	if len(j.Spec.Faults) > 0 {
		chaos.Arm(engine, sys, j.Spec.Faults)
	}
	return engine, sys, nil
}
