// Package strategy is the pluggable checkpoint-policy seam of the
// recovery control plane. A Strategy owns the decisions the agent loop
// used to hard-wire to GEMINI's scheme: where and how often checkpoint
// shards are placed (the per-iteration commit plan), how the remote
// persistent tier is fed, whether a failure needs the serialize stall,
// and which storage tier a recovery reads from. The agent keeps the
// mechanism — leases, detection, retries, event scheduling, rollback —
// and asks the installed strategy for policy at each decision point.
//
// Four strategies ship in the package's fixed table:
//
//   - gemini: the paper's scheme, extracted unchanged — full replication
//     to every placement holder each iteration, peer retrieval, remote
//     fallback (bit-identical to the pre-seam control plane).
//   - tiered: a TierCheck-style ladder — per-iteration GPU-buffer
//     snapshots (daemon-held, surviving software failures), a coarser
//     CPU-memory cadence, and the remote tier; software failures recover
//     from the GPU tier with zero lost iterations and no serialize stall.
//   - sparse: delta/changed-shards-only replication for MoE-like models —
//     only shards whose experts were touched this iteration move bytes,
//     at a small delta-replay cost on recovery.
//   - adaptive: a Chameleon-style meta-strategy that watches the observed
//     failure stream (MTBF, hardware fraction) and switches among the
//     three at iteration boundaries, recording every switch.
//
// Strategies are deterministic and single-run: give each run a fresh
// instance (strategy.New) and bind it to the run's engine state.
package strategy

import (
	"fmt"

	"gemini/internal/ckpt"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// Env binds a strategy to one run's control surface. The checkpoint
// engine and placement are shared with the agent system; Emit routes
// strategy-level events (e.g. adaptive switches) into the run's event
// log, trace, and metrics.
type Env struct {
	// Ckpt is the run's checkpoint bookkeeping engine.
	Ckpt *ckpt.Engine
	// Placement is the Algorithm 1 replica placement.
	Placement *placement.Placement
	// IterationTime is the training iteration duration — the unit
	// cadences and MTBF thresholds scale with.
	IterationTime simclock.Duration
	// Now reads the simulation clock.
	Now func() simclock.Time
	// RemoteEvery returns the remote persistent tier's cadence in
	// iterations (the system's SetRemoteEvery value).
	RemoteEvery func() int64
	// Emit records a strategy-level event. Never nil once bound.
	Emit func(event, detail string)
}

// CommitKind says how one (holder, owner) pair commits this iteration.
type CommitKind int

const (
	// CommitFull moves the whole shard: Begin + Receive(shard) + Commit.
	CommitFull CommitKind = iota
	// CommitDelta moves only Bytes of delta on top of the holder's
	// previous committed copy; the result is a full logical copy at the
	// new iteration.
	CommitDelta
	// CommitRefresh moves nothing: the shard did not change, so the
	// holder's existing bytes ARE the new version and are re-stamped.
	CommitRefresh
)

// Commit is one (holder, owner) replication instruction.
type Commit struct {
	Holder, Owner int
	Kind          CommitKind
	// Bytes is the network traffic of a CommitDelta; ignored for
	// CommitFull (the full shard size) and CommitRefresh (zero).
	Bytes float64
}

// CommitPlan is the replication work for one completed iteration.
type CommitPlan struct {
	// Commits execute in order against the checkpoint engine.
	Commits []Commit
	// Remote commits this iteration to the remote persistent tier.
	Remote bool
}

// Tier is the storage tier a recovery reads from.
type Tier int

const (
	// TierMemory recovers from CPU memory (local or peer), driven by a
	// per-rank retrieval plan.
	TierMemory Tier = iota
	// TierGPU recovers from per-machine GPU-buffer snapshots: zero
	// network bytes, zero lost iterations (tiered strategy).
	TierGPU
	// TierRemote reloads everyone from the remote persistent store.
	TierRemote
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierGPU:
		return "gpu"
	case TierRemote:
		return "remote"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// RecoveryContext is what the agent knows when it asks for a recovery
// decision.
type RecoveryContext struct {
	// Failed are the ranks the root declared failed; Hardware flags the
	// subset needing machine replacement.
	Failed   []int
	Hardware map[int]bool
	// Reachable reports ranks whose CPU memory survived AND can serve
	// fetches right now (not partitioned away).
	Reachable func(int) bool
	// Surviving reports ranks whose CPU memory survived, reachable or
	// not — the basis of the is-waiting-worth-it retry check.
	Surviving func(int) bool
	// RemoteVersion is the newest iteration actually committed to the
	// remote persistent tier.
	RemoteVersion int64
	// Attempt counts retrieval attempts for this recovery, from 0.
	Attempt int
}

// Recovery is a strategy's recovery-source decision.
type Recovery struct {
	Tier    Tier
	Version int64
	// Plan carries the per-rank retrieval instructions for TierMemory.
	Plan []ckpt.Retrieval
	// Retryable (TierRemote only) says waiting could still surface a
	// memory-tier recovery — e.g. the holders are partitioned, not dead.
	Retryable bool
	// ReplayTime is extra restore cost charged on top of retrieval
	// (sparse delta replay); zero for plain full-copy strategies.
	ReplayTime simclock.Duration
}

// Outcome reports one completed recovery back to the strategy.
type Outcome struct {
	// At is the resume time (recovery completion).
	At simclock.Time
	// Source is the tier recovery read from: gpu, local, peer, remote.
	Source string
	// Version is the iteration training resumed from.
	Version int64
	// LostIterations is the rolled-back progress.
	LostIterations int64
	// TLost and TRecovery are the Eq. 1 terms.
	TLost, TRecovery simclock.Duration
	// Hardware says the wave included at least one machine replacement.
	Hardware bool
}

// Strategy owns checkpoint placement/cadence, commit behavior, and the
// recovery-source policy for one run. Implementations must be
// deterministic: the same call sequence yields the same decisions.
type Strategy interface {
	// Name is the registry name.
	Name() string
	// Active is the concrete policy currently in force — Name() for
	// fixed strategies, the selected sub-strategy for adaptive.
	Active() string
	// Bind attaches the strategy to a run. Called once, before Start.
	Bind(env Env)
	// OnActivate tells the strategy it just became the policy in force
	// at the given iteration (adaptive switches); tier state that decays
	// while dormant (GPU buffers) resets here.
	OnActivate(iteration int64)
	// PlanCommit returns the replication work for a completed iteration.
	PlanCommit(iteration int64, healthy func(int) bool) CommitPlan
	// SerializeNeeded says whether this failure needs the pre-recovery
	// serialize stall (torch.save of the in-memory checkpoints).
	SerializeNeeded(failed []int, hardware map[int]bool) bool
	// PlanRecovery chooses the recovery tier, version, and plan.
	PlanRecovery(ctx RecoveryContext) Recovery
	// OnFailure reports a machine failure the instant it happens
	// (physical tier state like GPU buffers is lost here, before
	// detection).
	OnFailure(rank int, hardware bool)
	// OnRecovered reports a completed recovery's accounting — the
	// adaptive controller's observation stream.
	OnRecovered(outcome Outcome)
}

// table lists the shipped strategies sorted by name; a name's position
// is its Index. Factories return fresh, unbound instances — strategies
// are stateful and single-run.
var table = [...]struct {
	name string
	new  func() Strategy
}{
	{"adaptive", func() Strategy { return NewAdaptive() }},
	{"gemini", func() Strategy { return NewGemini() }},
	{"sparse", func() Strategy { return NewSparse() }},
	{"tiered", func() Strategy { return NewTiered() }},
}

// New returns a fresh instance of the named strategy.
func New(name string) (Strategy, error) {
	if i := Index(name); i >= 0 {
		return table[i].new(), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (registered: %v)", name, Names())
}

// MustNew is New for known-good names.
func MustNew(name string) Strategy {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns the strategy names, sorted, in a fresh slice.
func Names() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.name
	}
	return out
}

// Index returns the name's position in Names(), or -1 — the stable
// numeric encoding behind the strategy.active gauge.
func Index(name string) int {
	for i, e := range table {
		if e.name == name {
			return i
		}
	}
	return -1
}
