package training

import (
	"fmt"
	"strconv"
	"sync"

	"gemini/internal/netsim"
	"gemini/internal/profile"
	"gemini/internal/simclock"
)

// OpKind classifies timeline operations.
type OpKind int

const (
	// OpAllGather is a ZeRO-3 parameter all-gather (network).
	OpAllGather OpKind = iota
	// OpReduceScatter is a gradient reduce-scatter (network).
	OpReduceScatter
	// OpCompute is a forward/backward compute step (GPU).
	OpCompute
	// OpUpdate is the optimizer step at iteration end (GPU, no network).
	OpUpdate
)

func (k OpKind) String() string {
	switch k {
	case OpAllGather:
		return "all-gather"
	case OpReduceScatter:
		return "reduce-scatter"
	case OpCompute:
		return "compute"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// isComm reports whether ops of this kind occupy the network.
func (k OpKind) isComm() bool { return k == OpAllGather || k == OpReduceScatter }

// TimedOp is one operation in the per-iteration timeline, with times
// relative to iteration start.
type TimedOp struct {
	Kind       OpKind
	Start, End simclock.Duration
	Label      string
	// Bytes is the network payload for communication ops (the logical
	// collective size, before the efficiency inflation).
	Bytes float64
}

// Duration returns the op's length.
func (op TimedOp) Duration() simclock.Duration { return op.End - op.Start }

// Timeline is the analytic per-iteration schedule of one machine. All
// machines run the same timeline (static synchronous training).
type Timeline struct {
	Config    Config
	Ops       []TimedOp
	Iteration simclock.Duration
}

// prefetchDepth is how many layers ahead the communication stream may run
// past compute — ZeRO-3's parameter prefetch window.
const prefetchDepth = 2

// layerLabels holds the interned label strings for one layer's timeline
// ops. Labels depend only on the layer index, never on the config, so
// they are built once per distinct layer depth and shared by every
// timeline — repeated ZeRO-3 and data-parallel builds (config sweeps,
// placement tables, stress campaigns) allocate no label strings.
type layerLabels struct {
	fwd, agFwd                 string
	bwd, agBwd, rsLabel, arBwd string
}

var (
	labelMu    sync.Mutex
	labelCache []layerLabels
)

// labelsFor returns interned labels for layers 0..layers-1. The returned
// slice is a read-only snapshot; strings are immutable and safe to share
// across goroutines.
func labelsFor(layers int) []layerLabels {
	labelMu.Lock()
	defer labelMu.Unlock()
	for l := len(labelCache); l < layers; l++ {
		n := strconv.Itoa(l)
		labelCache = append(labelCache, layerLabels{
			fwd: "fwd" + n, agFwd: "ag-fwd" + n,
			bwd: "bwd" + n, agBwd: "ag-bwd" + n, rsLabel: "rs-bwd" + n, arBwd: "ar-bwd" + n,
		})
	}
	return labelCache[:layers:layers]
}

// BuildTimeline derives the iteration timeline: L forward steps (param
// all-gather then compute), L backward steps (all-gather for activation
// recomputation, 3× compute, then gradient reduce-scatter), and the
// communication-free optimizer update at the end.
func BuildTimeline(cfg Config) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	layers := m.Layers
	layerBytes := m.LayerFP16Bytes()
	collBW := cfg.collectiveBandwidth()
	alpha := cfg.Calib.CollectiveAlpha

	agTime := netsim.CollectiveTime(netsim.AllGather, cfg.Machines, layerBytes, collBW, alpha)
	rsTime := netsim.CollectiveTime(netsim.ReduceScatter, cfg.Machines, layerBytes, collBW, alpha)

	// Per-GPU compute: 2·P_layer·tokens forward; backward with activation
	// recomputation costs 3× that (one recompute forward + 2× backward).
	tokens := float64(m.SeqLen * m.MicroBatch)
	flopsPerLayerFwd := 2 * float64(m.NominalParams) / float64(layers) * tokens
	gpuRate := cfg.Instance.PeakFLOPsPerGPU * cfg.Calib.MFU
	fwdCompute := simclock.Duration(flopsPerLayerFwd / gpuRate)
	bwdCompute := 3 * fwdCompute

	updTime := simclock.Duration(cfg.ShardBytesPerMachine() / 1e9 * cfg.Calib.UpdatePhaseSecondsPerGB)

	// 2L all-gathers + 2L computes + L reduce-scatters + 1 update.
	tl := &Timeline{Config: cfg, Ops: make([]TimedOp, 0, 5*layers+1)}
	var commFree, compFree simclock.Duration
	compStarts := make([]simclock.Duration, 0, 2*layers)

	labels := labelsFor(layers)
	type step struct {
		label   string            // interned compute label
		agLabel string            // interned all-gather label
		rsLabel string            // interned reduce-scatter label (backward only)
		comm    simclock.Duration // pre-compute all-gather
		compute simclock.Duration
		post    simclock.Duration // post-compute reduce-scatter (backward only)
	}
	steps := make([]step, 0, 2*layers)
	for l := 0; l < layers; l++ {
		steps = append(steps, step{label: labels[l].fwd, agLabel: labels[l].agFwd, comm: agTime, compute: fwdCompute})
	}
	for l := layers - 1; l >= 0; l-- {
		steps = append(steps, step{label: labels[l].bwd, agLabel: labels[l].agBwd, rsLabel: labels[l].rsLabel, comm: agTime, compute: bwdCompute, post: rsTime})
	}

	// Reduce-scatters become ready as their layer's backward compute
	// finishes; they are queued on the comm stream in order, interleaved
	// with all-gathers. We model one in-order comm stream: an op starts at
	// max(commFree, ready time). The queue is drained via an index head —
	// the backing array (capacity L, allocated once) is never re-sliced
	// per op.
	type pendingRS struct {
		ready simclock.Duration
		label string
	}
	rsQueue := make([]pendingRS, 0, layers)
	rsHead := 0

	flushRS := func(before simclock.Duration) {
		// Issue queued reduce-scatters that are ready before the given
		// horizon (the next all-gather's earliest start).
		for rsHead < len(rsQueue) {
			rs := rsQueue[rsHead]
			start := maxDur(commFree, rs.ready)
			if before >= 0 && start >= before {
				return
			}
			end := start + rsTime
			tl.Ops = append(tl.Ops, TimedOp{Kind: OpReduceScatter, Start: start, End: end, Label: rs.label, Bytes: layerBytes})
			commFree = end
			rsHead++
		}
	}

	for i, st := range steps {
		// Prefetch limit: the all-gather of step i may not start before
		// compute of step i−prefetchDepth has started.
		var gate simclock.Duration
		if i >= prefetchDepth {
			gate = compStarts[i-prefetchDepth]
		}
		flushRS(maxDur(commFree, gate))
		agStart := maxDur(commFree, gate)
		agEnd := agStart + st.comm
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpAllGather, Start: agStart, End: agEnd, Label: st.agLabel, Bytes: layerBytes})
		commFree = agEnd

		compStart := maxDur(compFree, agEnd)
		compEnd := compStart + st.compute
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpCompute, Start: compStart, End: compEnd, Label: st.label})
		compStarts = append(compStarts, compStart)
		compFree = compEnd

		if st.post > 0 {
			rsQueue = append(rsQueue, pendingRS{ready: compEnd, label: st.rsLabel})
		}
	}
	flushRS(-1)

	// Optimizer update needs all gradients reduced: start after both
	// streams drain.
	updStart := maxDur(compFree, commFree)
	updEnd := updStart + updTime
	tl.Ops = append(tl.Ops, TimedOp{Kind: OpUpdate, Start: updStart, End: updEnd, Label: "update"})
	tl.Iteration = updEnd
	return tl, nil
}

// MustBuildTimeline is BuildTimeline for known-good configs.
func MustBuildTimeline(cfg Config) *Timeline {
	tl, err := BuildTimeline(cfg)
	if err != nil {
		panic(err)
	}
	return tl
}

func maxDur(a, b simclock.Duration) simclock.Duration {
	if a > b {
		return a
	}
	return b
}

// CommOps returns the network operations of the timeline, in start order.
// It builds a fresh slice per call; hot loops filter tl.Ops by kind
// instead (ProfileWithJitter does).
func (tl *Timeline) CommOps() []TimedOp {
	n := 0
	for _, op := range tl.Ops {
		if op.Kind.isComm() {
			n++
		}
	}
	out := make([]TimedOp, 0, n)
	for _, op := range tl.Ops {
		if op.Kind.isComm() {
			out = append(out, op)
		}
	}
	return out
}

// Trace converts the timeline to a profiler iteration trace.
func (tl *Timeline) Trace() profile.IterationTrace {
	tr := profile.IterationTrace{Duration: tl.Iteration}
	for _, op := range tl.CommOps() {
		tr.Ops = append(tr.Ops, profile.Op{Start: op.Start, End: op.End, Label: op.Label})
	}
	return tr
}

// IdleTime returns the network idle time within the iteration.
func (tl *Timeline) IdleTime() simclock.Duration {
	tr := tl.Trace()
	return tl.Iteration - tr.BusyTime()
}

// Profile runs the §5.4 online profiling over the analytic timeline:
// it records `window` identical iterations and builds the averaged
// profile that feeds Algorithm 2.
func (tl *Timeline) Profile(window int) (*profile.Profile, error) {
	return tl.ProfileWithJitter(window, 0, 0)
}

// ProfileWithJitter profiles `window` iterations whose communication ops
// are stretched by a deterministic pseudo-random factor within ±frac —
// the cross-iteration variance §5.4 measures (<10% normalized standard
// deviation) and Algorithm 2's γ coefficient guards against.
func (tl *Timeline) ProfileWithJitter(window int, frac float64, seed int64) (*profile.Profile, error) {
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("training: jitter fraction %v out of [0,1)", frac)
	}
	rec, err := profile.NewRecorder(window)
	if err != nil {
		return nil, err
	}
	rng := newJitterSource(seed)
	var t simclock.Time
	for i := 0; i < window; i++ {
		// One stretch factor per iteration: the timeline's shape is
		// stable, only its pace varies (§5.4's observation). Without
		// jitter the factor is exactly 1 and the multiply is skipped
		// (x*1 == x, so the result is the same); the comm ops are read
		// in place from the immutable op list.
		stretch := 1.0
		if frac > 0 {
			stretch = 1 + frac*(2*rng.next()-1)
		}
		rec.BeginIteration(t)
		var end simclock.Duration
		for _, op := range tl.Ops {
			if !op.Kind.isComm() {
				continue
			}
			s, e := op.Start, op.End
			if frac > 0 {
				s = simclock.Duration(float64(s) * stretch)
				e = simclock.Duration(float64(e) * stretch)
			}
			rec.RecordOp(t.Add(s), t.Add(e), op.Label)
			if e > end {
				end = e
			}
		}
		iterLen := tl.Iteration
		if frac > 0 {
			iterLen = simclock.Duration(float64(iterLen) * stretch)
		}
		if iterLen < end {
			iterLen = end
		}
		t = t.Add(iterLen)
		rec.EndIteration(t)
	}
	return rec.Build()
}

// jitterSource is a tiny deterministic uniform-[0,1) generator
// (SplitMix64-based), stable across Go releases.
type jitterSource struct{ state uint64 }

func newJitterSource(seed int64) *jitterSource {
	return &jitterSource{state: uint64(seed)*0x9E3779B97F4A7C15 + 1}
}

func (j *jitterSource) next() float64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
