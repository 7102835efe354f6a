package main

// metricDef names one reported metric. moves records, for a per-layer
// metric, which end-to-end metric it should move and on which
// workloads, so a later change can cite both by name.
type metricDef struct {
	name, unit, better string
	moves              string
}

const (
	all     = "offline-kitti, serve-steady, cluster-overload"
	bothOff = "offline-kitti, serve-steady"
	serving = "serve-steady, cluster-overload"
)

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload from its untraced runs. Times are in reference
// seconds (see calibrate.go), so that the host's own changes of speed
// do not show as changes of the program.
//
// Three kinds of figure go with the per-layer metrics instead, which
// carry no bound. The modelled results (model.*) each apply to only
// some workloads, and every end-to-end metric must be non-zero on all.
// Raw CPU-second throughput follows the host's speed, which doubled
// within half an hour on the reference host. Wall-clock throughput
// also carries the time the hypervisor steals.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "frames_per_ref_cpu_s", unit: "frames/ref-CPU-s", better: "higher"},
	{name: "allocs_per_frame", unit: "allocs", better: "lower"},
	{name: "live_heap_mb", unit: "MiB", better: "lower"},
}

// perLayer are the traced run's metrics, named by module, and the
// untraced figures that carry no bound. A workload whose traced run
// does not reach a layer reports it as 0.
var perLayer = []metricDef{
	{"frames_per_cpu_s", "frames/CPU-s", "higher", "untraced throughput per raw process CPU second, on " + all},
	{"frames_per_wall_s", "frames/s", "higher", "untraced wall-clock throughput, where a parallelism gain shows, on " + all},
	{"host.ref_kernel_ms", "ms", "lower", "the reference kernel's CPU time: the host's speed, not the program's"},
	{"video.generate_s", "s", "lower", "setup_s on " + all},

	{"detector.full_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"detector.full_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"detector.regions_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"detector.regions_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"detector.proposals_per_frame", "boxes/frame", "lower", "frames_per_ref_cpu_s on " + all},
	{"detector.detections_per_frame", "boxes/frame", "lower", "frames_per_ref_cpu_s on " + all},

	{"geom.mask_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + bothOff},
	{"geom.mask_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + bothOff},
	{"geom.attrib_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + bothOff},
	{"geom.attrib_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + bothOff},
	{"geom.boxes_per_frame", "boxes/frame", "lower", "frames_per_ref_cpu_s on " + bothOff},
	{"geom.coverage", "fraction", "lower", "frames_per_ref_cpu_s on " + bothOff},

	{"tracker.predict_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"tracker.predict_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"tracker.observe_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"tracker.observe_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"tracker.tracks_per_frame", "tracks/frame", "lower", "frames_per_ref_cpu_s on " + all},

	{"core.step_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"core.step_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"core.self_us.p50", "us", "lower", "frames_per_ref_cpu_s on " + all},
	{"core.self_us.tail", "us", "lower", "frames_per_ref_cpu_s on " + all},

	{"gpumodel.price_us.p50", "us", "lower", "frames_per_ref_cpu_s on serve-steady; no change on offline-kitti"},
	{"gpumodel.price_us.tail", "us", "lower", "frames_per_ref_cpu_s on serve-steady; no change on offline-kitti"},
	{"gpumodel.regions_per_frame", "boxes/frame", "lower", "frames_per_ref_cpu_s on serve-steady"},
	{"gpumodel.launches_per_frame", "launches/frame", "lower", "frames_per_ref_cpu_s on serve-steady"},
	{"gpumodel.merge_ratio", "ratio", "lower", "frames_per_ref_cpu_s on serve-steady"},

	{"metrics.evaluate_s", "s", "lower", "frames_per_ref_cpu_s on offline-kitti"},

	{"serve.new_s", "s", "lower", "setup_s on serve-steady"},
	{"serve.submit_us.p50", "us", "lower", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.submit_us.tail", "us", "lower", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.drain_s", "s", "lower", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.engine_self_s", "s", "lower", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.batches", "count", "lower", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.frames_per_launch", "frames", "higher", "frames_per_ref_cpu_s on cluster-overload; model.latency_* on " + serving},
	{"serve.queue_wait_ms.mean", "ms", "lower", "model.latency_* on serve-steady"},
	{"serve.queue_wait_ms.tail", "ms", "lower", "model.latency_* on serve-steady"},
	{"serve.avg_queue_depth", "frames", "lower", "model.latency_* on " + serving},
	{"serve.utilization", "fraction", "higher", "model.latency_* on " + serving},
	{"serve.dropped_queue", "frames", "lower", "frames_per_ref_cpu_s on cluster-overload; model.served_frac on " + serving},
	{"serve.dropped_stale", "frames", "lower", "frames_per_ref_cpu_s on cluster-overload; model.served_frac on " + serving},
	{"serve.degraded", "frames", "lower", "frames_per_ref_cpu_s on cluster-overload"},

	{"control.ticks", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"control.mode_switches", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},

	{"cluster.new_s", "s", "lower", "setup_s on cluster-overload"},
	{"cluster.submit_us.p50", "us", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.submit_us.tail", "us", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.drain_s", "s", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.migrations", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.resizes", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.kills", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.replayed", "frames", "lower", "frames_per_ref_cpu_s on cluster-overload"},
	{"cluster.rebalanced", "count", "lower", "frames_per_ref_cpu_s on cluster-overload"},

	{"trace.overhead", "ratio", "lower", "traced step time over untraced, minus 1, on " + bothOff},
	{"trace.step_coverage", "fraction", "higher", "share of core.step time inside child spans, on " + bothOff},

	{"model.gops_per_frame", "Gops", "lower", "modelled result of offline-kitti (Table 2)"},
	{"model.map_hard", "mAP", "higher", "modelled result of offline-kitti (Table 2)"},
	{"model.md_frames", "frames", "lower", "modelled result of offline-kitti (Table 2)"},
	{"model.latency_p50_ms", "virtual-ms", "lower", "modelled result of " + serving},
	{"model.latency_p99_ms", "virtual-ms", "lower", "modelled result of " + serving},
	{"model.served_frac", "fraction", "higher", "modelled result of " + serving},
	{"model.served_per_dollar", "frames/USD", "higher", "modelled result of cluster-overload"},
}
