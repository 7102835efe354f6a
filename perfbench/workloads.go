package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detector"
	"repro/internal/gpumodel"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/control"
	"repro/internal/serve/sched"
	"repro/internal/sim"
	"repro/internal/video"
)

// workload is one set of inputs the benchmark runs, built from a seed.
type workload struct {
	name, why string
	// worlds is how many independent inputs one run cycles through:
	// enough to average out how much work one world holds, few enough
	// that a round of them takes a few seconds.
	worlds int
	// setup builds the workload, ready to run; stepWorkers is the
	// serving engine's step fan-out.
	setup func(seed int64, stepWorkers int, l *ledger) (instance, error)
	// books checks a result's own invariants and returns its modelled
	// results (model.*).
	books func(result any, l *ledger) map[string]value
	// traced runs the workload once more, at one step worker, with
	// spans around the calls into each layer; it returns the result
	// (whose digest must equal the untraced one) and per-layer metrics.
	traced func(seed int64, tr *tracer, l *ledger) (any, map[string]value, error)
}

// value is one metric reading and the number of samples behind it.
type value struct {
	v    float64
	n    int
	note string
}

// workloads are the benchmark's workloads. The two serving ones are
// open loop in virtual time: arrivals follow the seeded schedule
// whatever the service does, and one goroutine submits them in
// arrival order, so the generator never runs late.
var workloads = []workload{
	{
		name:   "offline-kitti",
		worlds: 12,
		why:    "the paper's main row: geom masks, detectors, tracker and metrics do the work, with no pricing or serving, so it bypasses gpumodel and serve",
		setup:  offlineSetup,
		books:  offlineBooks,
		traced: offlineTraced,
	},
	{
		name:   "serve-steady",
		worlds: 16,
		why:    "8 Poisson streams at utilisation ~0.63 with no drops: every frame is stepped and priced, so step and gpumodel pricing dominate",
		setup:  steadySetup,
		books:  servingBooks,
		traced: steadyTraced,
	},
	{
		name:   "cluster-overload",
		worlds: 32,
		why:    "bursty overload on 2 shards with EDF, control, migration, autoscale and a shard kill: ~30% drop unstepped, so sched, control, router and failover come forward",
		setup:  overloadSetup,
		books:  servingBooks,
		traced: overloadTraced,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// worldSeed is the seed of one world of a run: the worlds of distinct
// run seeds never overlap.
func worldSeed(seed int64, w workload, world int) int64 {
	return seed*int64(w.worlds) + int64(world)
}

// kittiSpec is the paper's main CaTDet configuration.
var kittiSpec = sim.SystemSpec{
	Kind: sim.CaTDet, Proposal: "resnet10a", Refinement: "resnet50", Cfg: core.DefaultConfig(),
}

// frameStride separates the frame ids of streams (or sequences): a
// frame's spans all carry id stream*frameStride + frame.
const frameStride = 1 << 20

func frameID(stream, frame int) int { return stream*frameStride + frame }

// ---- offline-kitti ----

// offline runs CaTDet through the serial engine over the full
// KITTI-sim preset (21 x 381 frames) and evaluates it at Hard, β=0.8.
type offline struct{ ds *dataset.Dataset }

type offlineResult struct {
	Run  *sim.RunResult
	Eval sim.Evaluation
}

func offlineSetup(seed int64, _ int, l *ledger) (instance, error) {
	ds := video.Generate(video.KITTIPreset(), seed)
	l.call("setup", nil)
	return &offline{ds: ds}, nil
}

func (o *offline) run(l *ledger) (outcome, error) {
	r, err := sim.Engine{Workers: 1}.Run(kittiSpec, o.ds)
	if l.call("run", err) != nil {
		return outcome{}, err
	}
	ev := sim.Evaluate(o.ds, r, dataset.Hard, 0.8)
	l.call("run", nil)
	l.check(r.Frames == o.ds.NumFrames(), "ran %d frames of %d", r.Frames, o.ds.NumFrames())
	return outcome{frames: r.Frames, result: offlineResult{Run: r, Eval: ev}}, nil
}

func offlineBooks(result any, _ *ledger) map[string]value {
	r := result.(offlineResult)
	n := r.Run.Frames
	return map[string]value{
		"model.gops_per_frame": {v: r.Run.AvgGops(), n: n},
		"model.map_hard":       {v: r.Eval.MAP, n: n},
		"model.md_frames":      {v: r.Eval.MeanDelay, n: n},
	}
}

func offlineTraced(seed int64, tr *tracer, l *ledger) (any, map[string]value, error) {
	g := tr.begin(spanGenerate, noFrame, noParent)
	ds := video.Generate(video.KITTIPreset(), seed)
	tr.end(g)
	l.call("traced", nil)
	real, err := kittiSpec.Build(ds.Classes)
	if l.call("traced", err) != nil {
		return nil, nil, err
	}
	rp, err := newReplay(kittiSpec, ds.Classes, tr)
	if err != nil {
		return nil, nil, err
	}
	c := &checked{replay: rp, real: real, l: l, seq: -1}
	r := sim.Run(c, ds)
	l.call("traced", nil)
	e := tr.begin(spanEvaluate, noFrame, noParent)
	ev := sim.Evaluate(ds, r, dataset.Hard, 0.8)
	tr.end(e)
	l.call("traced", nil)

	layers := replayLayers(tr, []*replay{rp}, c.realT)
	layers["video.generate_s"] = value{v: tr.total(spanGenerate).Seconds(), n: 1}
	layers["metrics.evaluate_s"] = value{v: tr.total(spanEvaluate).Seconds(), n: 1}
	return offlineResult{Run: r, Eval: ev}, layers, nil
}

// ---- serving workloads ----

// steadyConfig is serve-steady: one server, 8 KITTI-sim streams with
// Poisson arrivals at 10 fps for 60 virtual seconds, 12 executors
// (utilisation about 0.64, no drops), FIFO, batch 1.
func steadyConfig(seed int64, stepWorkers int) serve.Config {
	return serve.Config{
		Spec: kittiSpec, Preset: video.KITTIPreset(), Seed: seed,
		Streams: 8, FPS: 10, Arrivals: serve.Poisson, Duration: 60,
		Executors: 12, Scheduler: sched.FIFO, BatchSize: 1,
		StepWorkers: stepWorkers,
	}
}

// overloadConfig is cluster-overload: 2 shards, 12 streams at 20 fps
// in bursts (on for half of every 2 s), EDF with batch 4 and a 0.3 s
// staleness bound, the baseline controller, migration, autoscale from
// 1 to 4 executors per shard, and shard 0 killed at a third of the
// load and revived at half, replaying its seized frames. About 30% of
// frames drop unstepped and nearly every served frame is degraded.
// The load lasts 31.5 s so the kill lands inside a burst. An executor
// is released only after 2 s idle (DownIdle 4 ticks of 0.5 s), longer
// than the 1 s between bursts: with the 1 s default the fleet
// oscillates with the bursts, and whether it catches up depends on the
// seed, which moved the served share between 0.31 and 0.72.
//
// Each shard's server owns stepWorkers step goroutines, but the router
// drives one shard at a time, so no more than stepWorkers of them run
// at once.
func overloadConfig(seed int64, stepWorkers int) cluster.Config {
	const d = 31.5
	return cluster.Config{
		Base: serve.Config{
			Spec: kittiSpec, Preset: video.KITTIPreset(), Seed: seed,
			Streams: 12, FPS: 20, Arrivals: serve.Burst, Duration: d,
			Executors: 1, Scheduler: sched.EDF, BatchSize: 4, MaxStaleness: 0.3,
			Control:     control.Config{Kind: control.KindBaseline},
			StepWorkers: stepWorkers,
		},
		Shards:    2,
		Migration: cluster.Migration{QueueDepth: 8},
		Autoscale: cluster.Autoscale{Enabled: true, Min: 1, Max: 4, DownIdle: 4},
		Faults: cluster.FaultPlan{
			Failover: cluster.FailoverReplay,
			Faults: []cluster.Fault{
				{Time: d / 3, Kind: cluster.FaultKill, Shard: 0},
				{Time: d / 2, Kind: cluster.FaultRevive, Shard: 0},
			},
		},
	}
}

// schedule is the config's arrival schedule, in submission order.
func schedule(cfg serve.Config) []serve.Arrival {
	var out []serve.Arrival
	src := serve.ScheduleSource(cfg)
	for {
		a, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// fleet is what serve.Server and cluster.Router share.
type fleet[R any] interface {
	Submit(stream, frame int, arriveAt float64) error
	Drain(ctx context.Context) (R, error)
	Close() error
}

// drive submits every arrival in order, drains and closes the fleet,
// recording each call in phase; with a tracer it wraps each Submit in
// a span named submit and the Drain in one named drain.
func drive[R any](f fleet[R], arrivals []serve.Arrival, tr *tracer, submit, drain, phase string, l *ledger) (R, error) {
	defer f.Close()
	for _, a := range arrivals {
		sp := tr.begin(submit, frameID(a.Stream, a.Frame), noParent)
		err := f.Submit(a.Stream, a.Frame, a.At)
		tr.end(sp)
		l.call(phase, err)
	}
	sp := tr.begin(drain, noFrame, noParent)
	res, err := f.Drain(context.Background())
	tr.end(sp)
	return res, l.call(phase, err)
}

// online is a fleet set up with its arrival schedule.
type online[R any] struct {
	f        fleet[R]
	arrivals []serve.Arrival
}

func (s *online[R]) run(l *ledger) (outcome, error) {
	res, err := drive(s.f, s.arrivals, nil, "", "", "run", l)
	if err != nil {
		return outcome{}, err
	}
	return outcome{frames: len(s.arrivals), result: res}, nil
}

func steadySetup(seed int64, stepWorkers int, l *ledger) (instance, error) {
	srv, err := serve.New(steadyConfig(seed, stepWorkers))
	if l.call("setup", err) != nil {
		return nil, err
	}
	return &online[*serve.Result]{f: srv, arrivals: schedule(srv.Config())}, nil
}

func overloadSetup(seed int64, stepWorkers int, l *ledger) (instance, error) {
	r, err := cluster.New(overloadConfig(seed, stepWorkers))
	if l.call("setup", err) != nil {
		return nil, err
	}
	return &online[*cluster.Result]{f: r, arrivals: schedule(r.Config().Base)}, nil
}

// conserved checks arrived == served + every drop channel for each
// stream row and the fleet row, and that the rows sum to the fleet.
func conserved(fleet serve.StreamStats, rows []serve.StreamStats, l *ledger) {
	ok := func(st serve.StreamStats) bool {
		return st.Arrived == st.Served+st.DroppedQueue+st.DroppedStale+st.DroppedFailover
	}
	var sum serve.StreamStats
	for _, st := range rows {
		l.check(ok(st), "stream %s: arrived %d != served %d + dropped %d/%d/%d",
			st.ID, st.Arrived, st.Served, st.DroppedQueue, st.DroppedStale, st.DroppedFailover)
		sum.Arrived += st.Arrived
		sum.Served += st.Served
	}
	l.check(ok(fleet), "fleet: arrived %d != served %d + dropped %d/%d/%d",
		fleet.Arrived, fleet.Served, fleet.DroppedQueue, fleet.DroppedStale, fleet.DroppedFailover)
	l.check(sum.Arrived == fleet.Arrived && sum.Served == fleet.Served,
		"stream rows sum to %d/%d, fleet %d/%d", sum.Arrived, sum.Served, fleet.Arrived, fleet.Served)
}

func servingBooks(result any, l *ledger) map[string]value {
	var fleet serve.StreamStats
	out := map[string]value{}
	switch r := result.(type) {
	case *serve.Result:
		fleet = r.Fleet
		conserved(r.Fleet, r.PerStream, l)
	case *cluster.Result:
		fleet = r.Fleet
		conserved(r.Fleet, r.PerStream, l)
		out["model.served_per_dollar"] = value{v: r.ServedPerDollar, n: fleet.Served}
	default:
		panic(fmt.Sprintf("servingBooks: unexpected result %T", result))
	}
	n := fleet.Latency.Count
	out["model.latency_p50_ms"] = value{v: 1000 * fleet.Latency.P50, n: n}
	out["model.latency_p99_ms"] = value{v: 1000 * fleet.Latency.P99, n: n}
	if fleet.Arrived > 0 {
		out["model.served_frac"] = value{v: float64(fleet.Served) / float64(fleet.Arrived), n: fleet.Arrived}
	}
	return out
}

// latencySlack absorbs float rounding in a served frame's latency,
// which the engine computes as (dispatch+service)-arrive: with no
// queueing that can land an ulp below the service time.
const latencySlack = 1e-9

func steadyTraced(seed int64, tr *tracer, l *ledger) (any, map[string]value, error) {
	cfg := steadyConfig(seed, 1)
	var served []serve.Event
	counts := map[serve.EventKind]int{}
	cfg.Sink = serve.SinkFunc(func(e serve.Event) {
		counts[e.Kind]++
		if e.Kind == serve.EventServed {
			served = append(served, e)
		}
	})
	sp := tr.begin(spanServeNew, noFrame, noParent)
	srv, err := serve.New(cfg)
	tr.end(sp)
	if l.call("traced", err) != nil {
		return nil, nil, err
	}
	cfg = srv.Config()
	res, err := drive[*serve.Result](srv, schedule(cfg), tr, spanServeSubmit, spanServeDrain, "traced", l)
	if err != nil {
		return nil, nil, err
	}
	sinkMatchesBooks(counts, res.Fleet, l)

	layers, stepT, err := replayServed(cfg, served, res, tr, l)
	if err != nil {
		return nil, nil, err
	}
	engine := tr.total(spanServeSubmit) + tr.total(spanServeDrain)
	layers["serve.new_s"] = value{v: tr.total(spanServeNew).Seconds(), n: 1}
	layers["serve.drain_s"] = value{v: tr.total(spanServeDrain).Seconds(), n: 1}
	layers["serve.engine_self_s"] = value{v: (engine - stepT).Seconds(), n: 1}
	addTimes(layers, "serve.submit_us", tr.perFrame(spanServeSubmit))
	addServeLayers(layers, res.Fleet, res.Batches, res.AvgQueueDepth, res.Utilization)
	layers["control.ticks"] = value{v: float64(res.ControlTicks), n: 1}
	layers["control.mode_switches"] = value{v: float64(res.ModeSwitches), n: 1}
	return res, layers, nil
}

// sinkMatchesBooks checks that the events a sink saw count the same
// frames as the result's books.
func sinkMatchesBooks(counts map[serve.EventKind]int, fleet serve.StreamStats, l *ledger) {
	l.check(counts[serve.EventServed] == fleet.Served, "sink saw %d served, books %d", counts[serve.EventServed], fleet.Served)
	l.check(counts[serve.EventDroppedQueue] == fleet.DroppedQueue, "sink saw %d queue drops, books %d", counts[serve.EventDroppedQueue], fleet.DroppedQueue)
	l.check(counts[serve.EventDroppedStale] == fleet.DroppedStale, "sink saw %d stale drops, books %d", counts[serve.EventDroppedStale], fleet.DroppedStale)
}

// addServeLayers records the serving engine's books as serve.* metrics.
func addServeLayers(layers map[string]value, fleet serve.StreamStats, batches int, depth, util float64) {
	layers["serve.batches"] = value{v: float64(batches), n: 1}
	if batches > 0 {
		layers["serve.frames_per_launch"] = value{v: float64(fleet.Served) / float64(batches), n: batches}
	}
	layers["serve.avg_queue_depth"] = value{v: depth, n: 1}
	layers["serve.utilization"] = value{v: util, n: 1}
	layers["serve.dropped_queue"] = value{v: float64(fleet.DroppedQueue), n: 1}
	layers["serve.dropped_stale"] = value{v: float64(fleet.DroppedStale), n: 1}
	layers["serve.degraded"] = value{v: float64(fleet.Degraded), n: 1}
}

// replayServed re-steps every served frame of a batch-1, never-degraded
// server through a replay session per stream, beside a real one, in
// the order the server stepped them, and prices each frame with
// gpumodel.CaTDetFrame as the server does. It checks the replay against
// the real outputs and the server's books, and returns the per-layer
// metrics and the step-and-price time of the real sessions.
func replayServed(cfg serve.Config, served []serve.Event, res *serve.Result, tr *tracer, l *ledger) (map[string]value, time.Duration, error) {
	preset := cfg.Preset
	preset.FPS = cfg.FPS
	last := make([]int, cfg.Streams)
	for _, e := range served {
		if e.Frame+1 > last[e.Stream] {
			last[e.Stream] = e.Frame + 1
		}
	}
	g := tr.begin(spanGenerate, noFrame, noParent)
	seqs := make([]*dataset.Sequence, cfg.Streams)
	for s := range seqs {
		gr := video.NewGrower(preset, cfg.Seed, s)
		gr.Grow(last[s])
		seqs[s] = gr.Sequence()
	}
	tr.end(g)
	frame := func(e serve.Event) detector.Frame {
		seq := seqs[e.Stream]
		return detector.Frame{
			SeqID: seq.ID, Index: e.Frame, Width: seq.Width, Height: seq.Height,
			Objects: seq.Frames[e.Frame].Objects,
		}
	}
	classes := preset.ClassList()
	ref, err := detector.New(cfg.Spec.Refinement)
	if err != nil {
		return nil, 0, err
	}
	gpu := gpumodel.Default()
	price := func(f detector.Frame, out core.FrameOutput) gpumodel.FrameTime {
		return gpu.CaTDetFrame(out.Ops.Proposal, out.Regions, float64(f.Width), float64(f.Height), ref.Cost, out.NumProposals)
	}

	sessions := make([]*checked, cfg.Streams)
	replays := make([]*replay, cfg.Streams)
	for s := range sessions {
		real, err := cfg.Spec.Build(classes)
		if err != nil {
			return nil, 0, err
		}
		rp, err := newReplay(cfg.Spec, classes, tr)
		if err != nil {
			return nil, 0, err
		}
		// Reset advances seq, so stream s's frames carry ids of s.
		sessions[s] = &checked{replay: rp, real: real, l: l, seq: s - 1}
		sessions[s].Reset(seqs[s])
		replays[s] = rp
	}
	var maxService float64
	var waits []float64
	var regions, launches int
	for _, e := range served {
		f := frame(e)
		out := sessions[e.Stream].Step(f)
		sp := tr.begin(spanPrice, frameID(e.Stream, e.Frame), noParent)
		ft := price(f, out)
		tr.end(sp)
		service := ft.Total
		if service > maxService {
			maxService = service
		}
		l.check(e.Latency >= service-latencySlack, "stream %d frame %d: latency %v below its service time %v",
			e.Stream, e.Frame, e.Latency, service)
		waits = append(waits, 1000*(e.Latency-service))
		regions += len(out.Regions)
		launches += ft.Launches
	}
	l.check(maxService == res.MaxService, "largest replayed service %v != books %v", maxService, res.MaxService)

	var stepT time.Duration
	for _, c := range sessions {
		stepT += c.realT
	}
	layers := replayLayers(tr, replays, stepT)
	layers["video.generate_s"] = value{v: tr.total(spanGenerate).Seconds(), n: 1}
	addTimes(layers, "gpumodel.price_us", tr.perFrame(spanPrice))
	n := len(served)
	if n > 0 {
		layers["gpumodel.regions_per_frame"] = value{v: float64(regions) / float64(n), n: n}
		layers["gpumodel.launches_per_frame"] = value{v: float64(launches) / float64(n), n: n}
	}
	if regions > 0 {
		layers["gpumodel.merge_ratio"] = value{v: float64(launches) / float64(regions), n: regions}
	}
	mean := 0.0
	for _, w := range waits {
		mean += w
	}
	if n > 0 {
		layers["serve.queue_wait_ms.mean"] = value{v: mean / float64(n), n: n}
	}
	addTail(layers, "serve.queue_wait_ms.tail", waits)
	return layers, stepT + tr.total(spanPrice), nil
}

func overloadTraced(seed int64, tr *tracer, l *ledger) (any, map[string]value, error) {
	cfg := overloadConfig(seed, 1)
	serveCounts := map[serve.EventKind]int{}
	clusterCounts := map[cluster.EventKind]int{}
	cfg.Sink = cluster.SinkFunc(func(e cluster.Event) {
		clusterCounts[e.Kind]++
		if e.Kind == cluster.EventServe {
			serveCounts[e.Serve.Kind]++
		}
	})
	sp := tr.begin(spanClusterNew, noFrame, noParent)
	r, err := cluster.New(cfg)
	tr.end(sp)
	if l.call("traced", err) != nil {
		return nil, nil, err
	}
	res, err := drive[*cluster.Result](r, schedule(r.Config().Base), tr, spanClusterSubmit, spanClusterDrain, "traced", l)
	if err != nil {
		return nil, nil, err
	}
	sinkMatchesBooks(serveCounts, res.Fleet, l)
	l.check(clusterCounts[cluster.EventMigrate] == res.Migrations, "sink saw %d migrations, books %d",
		clusterCounts[cluster.EventMigrate], res.Migrations)

	layers := map[string]value{
		"cluster.new_s":         {v: tr.total(spanClusterNew).Seconds(), n: 1},
		"cluster.drain_s":       {v: tr.total(spanClusterDrain).Seconds(), n: 1},
		"cluster.migrations":    {v: float64(res.Migrations), n: 1},
		"cluster.resizes":       {v: float64(res.Resizes), n: 1},
		"control.ticks":         {v: float64(res.ControlTicks), n: 1},
		"control.mode_switches": {v: float64(res.ModeSwitches), n: 1},
	}
	if fb := res.Faults; fb != nil {
		l.check(clusterCounts[cluster.EventKill] == fb.Kills, "sink saw %d kills, books %d", clusterCounts[cluster.EventKill], fb.Kills)
		layers["cluster.kills"] = value{v: float64(fb.Kills), n: 1}
		layers["cluster.replayed"] = value{v: float64(fb.Replayed), n: 1}
		layers["cluster.rebalanced"] = value{v: float64(fb.Rebalanced), n: 1}
	}
	addTimes(layers, "cluster.submit_us", tr.perFrame(spanClusterSubmit))
	batches := 0
	depth, util := 0.0, 0.0
	for _, b := range res.PerShard {
		batches += b.Result.Batches
		depth += b.Result.AvgQueueDepth
		util += b.Result.Utilization
	}
	shards := float64(len(res.PerShard))
	addServeLayers(layers, res.Fleet, batches, depth/shards, util/shards)
	return res, layers, nil
}

// replayLayers derives the per-layer metrics of replayed frames from
// the spans and the replays' work counters; realT is the untraced
// step time of the real system over the same frames.
func replayLayers(tr *tracer, replays []*replay, realT time.Duration) map[string]value {
	layers := map[string]value{}
	for name, span := range map[string]string{
		"detector.full_us":    spanDetectFull,
		"detector.regions_us": spanDetectRegions,
		"geom.mask_us":        spanMask,
		"geom.attrib_us":      spanAttrib,
		"tracker.predict_us":  spanPredict,
		"tracker.observe_us":  spanObserve,
		"core.step_us":        spanStep,
	} {
		addTimes(layers, name, tr.perFrame(span))
	}
	addTimes(layers, "core.self_us", tr.selfTimes(spanStep))

	var frames, proposals, detections, boxes, tracks int
	var coverage float64
	for _, r := range replays {
		frames += r.frames
		proposals += r.proposals
		detections += r.detections
		boxes += r.boxes
		tracks += r.tracks
		coverage += r.coverage
	}
	if frames > 0 {
		per := func(x float64) value { return value{v: x / float64(frames), n: frames} }
		layers["detector.proposals_per_frame"] = per(float64(proposals))
		layers["detector.detections_per_frame"] = per(float64(detections))
		layers["geom.boxes_per_frame"] = per(float64(boxes))
		layers["geom.coverage"] = per(coverage)
		layers["tracker.tracks_per_frame"] = per(float64(tracks))
	}
	step := tr.total(spanStep)
	if realT > 0 {
		layers["trace.overhead"] = value{v: float64(step)/float64(realT) - 1, n: frames}
	}
	if step > 0 {
		self := 0.0
		for _, s := range tr.selfTimes(spanStep) {
			self += s
		}
		layers["trace.step_coverage"] = value{v: 1 - self*float64(time.Microsecond)/float64(step), n: frames}
	}
	return layers
}

// addTimes records the median and the tail of per-frame (or per-call)
// times under name.p50 and name.tail.
func addTimes(layers map[string]value, name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	layers[name+".p50"] = value{v: percentile(samples, 50), n: len(samples), note: "p50"}
	addTail(layers, name+".tail", samples)
}

// addTail records the highest percentile with at least ten samples
// beyond it; with too few samples for any, it records nothing.
func addTail(layers map[string]value, name string, samples []float64) {
	if q, ok := tailLevel(len(samples)); ok {
		layers[name] = value{v: percentile(samples, q), n: len(samples), note: fmt.Sprintf("p%g", q)}
	}
}
