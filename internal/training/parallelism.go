package training

import (
	"fmt"

	"gemini/internal/netsim"
	"gemini/internal/simclock"
)

// Parallelism selects the distribution strategy whose communication
// timeline the simulator generates. The paper evaluates GEMINI on ZeRO-3
// and names the other parallelisms as future work (§9); the alternative
// timelines here let Algorithm 2 schedule checkpoints into their —
// differently shaped — idle spans.
type Parallelism int

const (
	// ZeRO3 shards parameters, gradients and optimizer states across all
	// GPUs; every layer's forward and backward needs a parameter
	// all-gather, and gradients reduce-scatter (§5.1).
	ZeRO3 Parallelism = iota
	// DataParallel replicates the model; the network carries only the
	// per-layer gradient all-reduces overlapped with the backward pass,
	// leaving the entire forward pass as network idle time.
	DataParallel
	// PipelineParallel partitions layers into stages; the network carries
	// only small activation/gradient boundary tensors, and is almost
	// always idle.
	PipelineParallel
)

func (p Parallelism) String() string {
	switch p {
	case ZeRO3:
		return "zero-3"
	case DataParallel:
		return "data-parallel"
	case PipelineParallel:
		return "pipeline-parallel"
	default:
		return fmt.Sprintf("Parallelism(%d)", int(p))
	}
}

// BuildTimelineFor derives the per-iteration timeline under the given
// parallelism. ZeRO3 delegates to BuildTimeline.
func BuildTimelineFor(cfg Config, p Parallelism) (*Timeline, error) {
	switch p {
	case ZeRO3:
		return BuildTimeline(cfg)
	case DataParallel:
		return buildDataParallelTimeline(cfg)
	case PipelineParallel:
		return buildPipelineTimeline(cfg)
	default:
		return nil, fmt.Errorf("training: unknown parallelism %d", int(p))
	}
}

// buildDataParallelTimeline: forward is communication-free; the backward
// pass overlaps per-layer gradient all-reduces with compute; the update
// runs after the last all-reduce lands.
func buildDataParallelTimeline(cfg Config) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	L := m.Layers
	layerBytes := m.LayerFP16Bytes()
	arTime := netsim.CollectiveTime(netsim.AllReduce, cfg.Machines, layerBytes,
		cfg.collectiveBandwidth(), cfg.Calib.CollectiveAlpha)

	tokens := float64(m.SeqLen * m.MicroBatch)
	gpuRate := cfg.Instance.PeakFLOPsPerGPU * cfg.Calib.MFU
	fwd := simclock.Duration(2 * float64(m.NominalParams) / float64(L) * tokens / gpuRate)
	bwd := 2 * fwd // no recomputation: replicas hold activations

	// L forward computes, L backward computes, L all-reduces, 1 update.
	tl := &Timeline{Config: cfg, Ops: make([]TimedOp, 0, 3*L+1)}
	labels := labelsFor(L)
	var compFree, commFree simclock.Duration
	for l := 0; l < L; l++ {
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpCompute, Start: compFree, End: compFree + fwd,
			Label: labels[l].fwd})
		compFree += fwd
	}
	for l := L - 1; l >= 0; l-- {
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpCompute, Start: compFree, End: compFree + bwd,
			Label: labels[l].bwd})
		compFree += bwd
		// The layer's gradient bucket all-reduces as soon as its backward
		// completes, on the in-order comm stream.
		start := maxDur(commFree, compFree)
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpReduceScatter, Start: start, End: start + arTime,
			Label: labels[l].arBwd, Bytes: layerBytes})
		commFree = start + arTime
	}
	updStart := maxDur(compFree, commFree)
	upd := simclock.Duration(cfg.ShardBytesPerMachine() / 1e9 * cfg.Calib.UpdatePhaseSecondsPerGB)
	tl.Ops = append(tl.Ops, TimedOp{Kind: OpUpdate, Start: updStart, End: updStart + upd, Label: "update"})
	tl.Iteration = updStart + upd
	return tl, nil
}

// buildPipelineTimeline approximates GPipe-style pipelining with
// 4·stages microbatches: each stage computes its layer slice per
// microbatch and exchanges small activation boundaries with neighbors.
// The timeline is the steady-state view of one interior stage. Its
// 3·micro slot ops carry one constant label per kind: at 4·stages
// microbatches a per-slot label would cost three strings per machine.
func buildPipelineTimeline(cfg Config) (*Timeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	stages := cfg.Machines
	micro := 4 * stages // standard pipeline-efficiency choice
	tokensPerMicro := float64(m.SeqLen * m.MicroBatch)
	gpuRate := cfg.Instance.PeakFLOPsPerGPU * cfg.Calib.MFU

	// Per-microbatch, per-stage compute: the stage holds 1/stages of the
	// parameters; forward 2·P/stages·tokens, backward with recompute 3×.
	stageFwd := simclock.Duration(2 * float64(m.NominalParams) / float64(stages) * tokensPerMicro / float64(micro) / gpuRate)
	stageBwd := 3 * stageFwd

	// Boundary tensor: activations of one microbatch slice.
	boundaryBytes := float64(m.MicroBatch) / float64(micro) * float64(m.SeqLen) * float64(m.HiddenSize) * 2
	sendTime := netsim.TransferTime(boundaryBytes, cfg.Instance.NetworkBytesPerSec, cfg.Calib.CollectiveAlpha)

	// Three ops per microbatch slot, then the update.
	tl := &Timeline{Config: cfg, Ops: make([]TimedOp, 0, 3*micro+1)}
	var t simclock.Duration
	// Warmup bubble: the stage idles while the pipeline fills.
	t += simclock.Duration(stages-1) * (stageFwd + sendTime)
	// Steady state: micro forward+backward slots, each bracketed by the
	// two boundary transfers.
	for i := 0; i < micro; i++ {
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpAllGather, Start: t, End: t + sendTime,
			Label: "recv-act", Bytes: boundaryBytes})
		t += sendTime
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpCompute, Start: t, End: t + stageFwd + stageBwd,
			Label: "stage"})
		t += stageFwd + stageBwd
		tl.Ops = append(tl.Ops, TimedOp{Kind: OpReduceScatter, Start: t, End: t + sendTime,
			Label: "send-grad", Bytes: boundaryBytes})
		t += sendTime
	}
	// Drain bubble, then the optimizer update.
	t += simclock.Duration(stages-1) * (stageBwd + sendTime)
	upd := simclock.Duration(cfg.ShardBytesPerMachine() / 1e9 * cfg.Calib.UpdatePhaseSecondsPerGB)
	tl.Ops = append(tl.Ops, TimedOp{Kind: OpUpdate, Start: t, End: t + upd, Label: "update"})
	tl.Iteration = t + upd
	return tl, nil
}
