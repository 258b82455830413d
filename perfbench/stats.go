package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	rmetrics "repro/internal/metrics"
)

// pct is the nearest-rank q-quantile of xs (sorted in place); 0 if empty.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is num/den, or 0 when nothing happened.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latStats is one op kind's latency at one rate: each quantile is the
// median over the measured one-second windows of that window's quantile.
type latStats struct {
	p50, p90, p99 float64 // µs
	n             int     // samples in the measured window
}

// phaseStats is what one rate measured end to end.
type phaseStats struct {
	lat                    [numKinds]latStats
	cpuPerOp, clientPerOp  float64 // µs of process / generator-thread CPU per completed op
	lagP50, lagP99         float64 // µs
	backlogMid, backlogEnd int64
	offered, completed     float64 // ops/s
	ops                    float64 // ops completed in the measured window
}

// computePhase reduces one phase's ops and marks. Latency runs from the
// op's intended send time to its response; windows are one second of
// intended send times each.
func computePhase(in *inputs, ph *phase, r *phaseRun) *phaseStats {
	st := &phaseStats{}
	nw := int(ph.measure / int64(time.Second))
	var p50, p90, p99 [numKinds][]float64
	var lat [numKinds][]float64
	var lags []float64
	i := ph.first
	for w := 0; w < nw; w++ {
		// Ops are in due order, so each window is a contiguous run.
		lo, hi := ph.warmup+int64(w)*int64(time.Second), ph.warmup+int64(w+1)*int64(time.Second)
		for k := range lat {
			lat[k] = lat[k][:0]
		}
		for ; i < ph.end && in.ops[i].due < hi; i++ {
			if o := &in.ops[i]; o.due >= lo {
				lat[o.kind] = append(lat[o.kind], float64(o.done-(r.t0+o.due))/1e3)
				lags = append(lags, float64(o.lag)/1e3)
			}
		}
		for k, xs := range lat {
			if len(xs) > 0 {
				st.lat[k].n += len(xs)
				p50[k] = append(p50[k], pct(xs, 0.50))
				p90[k] = append(p90[k], pct(xs, 0.90))
				p99[k] = append(p99[k], pct(xs, 0.99))
			}
		}
	}
	for k := range st.lat {
		st.lat[k].p50, st.lat[k].p90, st.lat[k].p99 = median(p50[k]), median(p90[k]), median(p99[k])
	}
	st.lagP50, st.lagP99 = pct(lags, 0.50), pct(lags, 0.99)
	st.ops = float64(r.finish.completed - r.start.completed)
	st.cpuPerOp = ratio(float64(r.finish.cpu-r.start.cpu)/1e3, st.ops)
	st.clientPerOp = ratio(float64(r.finish.threadCPU-r.start.threadCPU)/1e3, st.ops)
	st.backlogMid = r.mid.sent - r.mid.completed
	st.backlogEnd = r.finish.sent - r.finish.completed
	st.offered = float64(len(lags)) / float64(nw)
	st.completed = ratio(st.ops, float64(r.finish.at-r.start.at)/1e9)
	return st
}

// print writes the figures that are reported but not gated.
func (st *phaseStats) print(ph *phase, traced bool) {
	tag := ph.name
	if traced {
		tag += " (traced)"
	}
	fmt.Printf("rate %-13s offered %.0f ops/s (target %.0f), completed %.0f ops/s; generator lag p50 %.1f µs p99 %.1f µs; backlog mid %d end %d; cpu %.3f µs/op (generator thread %.3f)\n",
		tag, st.offered, ph.rate, st.completed, st.lagP50, st.lagP99, st.backlogMid, st.backlogEnd, st.cpuPerOp, st.clientPerOp)
	for k, l := range st.lat {
		if l.n > 0 {
			fmt.Printf("rate %-13s %-4s p50 %8.1f µs  p90 %8.1f µs  p99 %8.1f µs  (%d samples)\n",
				tag, kindNames[k], l.p50, l.p90, l.p99, l.n)
		}
	}
}

// endToEnd fills in the gated metrics of an untraced run.
func endToEnd(res *result, po *passOut, low, high *phaseStats) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metricOut{v, unit} }
	put("setup_s", median(append([]float64(nil), po.setups...)), "s")
	for _, r := range []struct {
		name string
		st   *phaseStats
	}{{"low", low}, {"high", high}} {
		put("get_p50_us."+r.name, r.st.lat[opGet].p50, "us")
		put("get_p90_us."+r.name, r.st.lat[opGet].p90, "us")
		put("put_p50_us."+r.name, r.st.lat[opPut].p50, "us")
		put("put_p90_us."+r.name, r.st.lat[opPut].p90, "us")
		put("cpu_us_per_op."+r.name, r.st.cpuPerOp, "us")
	}
	put("space_amp", po.spaceAmp, "ratio")
}

// perLayer fills in the per-layer metrics of a traced run: every metric
// comes from the traced high rate, and the ones whose effect shows at the
// low rate are repeated from it with a ".low" suffix. A layer the workload
// does not run reports 0.
func perLayer(res *result, po *passOut, base, low, high *phaseStats) {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metricOut{v, unit} }
	layer := func(suffix string, st *phaseStats, r *phaseRun, sp spanStats) {
		a, b := r.start.layers, r.finish.layers
		ops := st.ops
		d := func(name string) float64 { return float64(b.index[name] - a.index[name]) }
		var queue, exec *rmetrics.Histogram
		if a.queue != nil {
			queue, exec = b.queue.Delta(a.queue), b.exec.Delta(a.exec)
		}
		q := func(h *rmetrics.Histogram, p float64) float64 {
			if h == nil || h.Count() == 0 {
				return 0
			}
			return h.Quantile(p) * 1e6
		}
		flushes := ratio(float64(b.pipe.Flushes-a.pipe.Flushes), ops)
		depth := ratio(float64(b.pipe.DepthSum-a.pipe.DepthSum), float64(b.pipe.Responses-a.pipe.Responses))
		deferrals := ratio(d(rmetrics.CtrWindowDeferrals), ops)
		bypass := ratio(d(rmetrics.CtrBypassOps), ops)
		if suffix != "" {
			put("kvserver.flushes_per_op"+suffix, flushes, "count")
			put("kvserver.depth_achieved"+suffix, depth, "count")
			put("pctt.queue_wait_us.p50"+suffix, q(queue, 0.50), "us")
			put("pctt.queue_wait_us.p90"+suffix, q(queue, 0.90), "us")
			put("pctt.window_deferrals_per_op"+suffix, deferrals, "count")
			put("pctt.bypass_share"+suffix, bypass, "ratio")
			return
		}
		put("kvserver.self_us.p50", pct(sp.kvSelf, 0.50), "us")
		put("kvserver.self_us.p90", pct(sp.kvSelf, 0.90), "us")
		put("kvserver.bytes_per_op", ratio(float64(b.written+b.got-a.written-a.got), ops), "bytes")
		put("kvserver.flushes_per_op", flushes, "count")
		put("kvserver.depth_achieved", depth, "count")
		put("kvserver.barrier_us.p90", pct(sp.barrier, 0.90), "us")

		put("store.submit_us.p90", pct(sp.submit, 0.90), "us")
		put("store.op_us.p50", pct(sp.storeOp, 0.50), "us")
		put("store.op_us.p90", pct(sp.storeOp, 0.90), "us")
		put("store.scan_us.p50", pct(sp.scan, 0.50), "us")
		put("store.scan_us.p90", pct(sp.scan, 0.90), "us")
		put("store.merge_self_us.p90", pct(sp.mergeSelf, 0.90), "us")
		skew := 0.0
		if n := len(b.shardCalls); n > 0 {
			var sum, top float64
			for i := range b.shardCalls {
				c := float64(b.shardCalls[i] - a.shardCalls[i])
				sum += c
				top = max(top, c)
			}
			skew = ratio(top, sum/float64(n))
		}
		put("store.shard_op_skew", skew, "ratio")

		put("pctt.queue_wait_us.p50", q(queue, 0.50), "us")
		put("pctt.queue_wait_us.p90", q(queue, 0.90), "us")
		put("pctt.window_deferrals_per_op", deferrals, "count")
		put("pctt.bypass_share", bypass, "ratio")
		put("pctt.exec_us.p50", q(exec, 0.50), "us")
		put("pctt.exec_us.p90", q(exec, 0.90), "us")
		put("pctt.ops_per_batch", ratio(ops, d(rmetrics.CtrBatches)), "count")
		put("pctt.coalesced_ratio", ratio(d(rmetrics.CtrCoalesced), ops), "ratio")
		put("pctt.shortcut_hit_rate", ratio(d(rmetrics.CtrShortcutHit), d(rmetrics.CtrShortcutHit)+d(rmetrics.CtrShortcutMiss)), "ratio")
		put("pctt.hotset_hit_rate", ratio(d(rmetrics.CtrHotsetHit), d(rmetrics.CtrHotsetHit)+d(rmetrics.CtrHotsetMiss)), "ratio")
		put("pctt.batch_fallback_ratio", ratio(d(rmetrics.CtrBatchFallbacks), ops), "ratio")
		put("pctt.steals_per_op", ratio(d(rmetrics.CtrBucketSteals), ops), "count")
		put("pctt.handoffs_per_op", ratio(d(rmetrics.CtrBucketHandoffs), ops), "count")

		put("olc.node_accesses_per_op", ratio(d(rmetrics.CtrNodeAccesses), ops), "count")
		put("olc.key_matches_per_op", ratio(d(rmetrics.CtrKeyMatches), ops), "count")
		put("olc.lock_acquires_per_op", ratio(d(rmetrics.CtrLockAcquire), ops), "count")
		put("olc.restarts_per_op", ratio(d(rmetrics.CtrRestarts), ops), "count")
		put("olc.lock_contention_per_op", ratio(d(rmetrics.CtrLockContention), ops), "count")

		rt := b.rt.DeltaSince(a.rt)
		put("runtime.alloc_bytes_per_op", ratio(rmDelta(a.rm, b.rm, 0), ops), "bytes")
		put("runtime.allocs_per_op", ratio(rmDelta(a.rm, b.rm, 1), ops), "count")
		put("runtime.gc_cpu_share", ratio(rmDelta(a.rm, b.rm, 2), rmDelta(a.rm, b.rm, 3)), "ratio")
		put("runtime.gc_cycles", float64(rt.GCCycles), "count")
		put("runtime.gc_pause_max_us", rt.GCPauseMaxNanos/1e3, "us")
		put("runtime.sched_latency_p99_us", rt.SchedLatP99Nanos/1e3, "us")
		put("runtime.heap_live_mb", float64(b.rt.HeapLiveBytes)/1e6, "MB")

		put("bench.gen_lag_us.p99", st.lagP99, "us")
		put("bench.client_cpu_us_per_op", st.clientPerOp, "us")
	}
	layer(".low", low, po.runs[0], po.spans[0])
	layer("", high, po.runs[1], po.spans[1])
	put("bench.trace_overhead", ratio(high.cpuPerOp, base.cpuPerOp)-1, "ratio")
	sampled, mismatched := 0, 0
	for _, sp := range po.spans {
		sampled += sp.sampled
		mismatched += sp.mismatched
	}
	put("bench.span_mismatch_share", ratio(float64(mismatched), float64(sampled)), "ratio")
	fmt.Printf("perfbench: traced spans: %d sampled requests, %d did not nest within %d ns\n", sampled, mismatched, nestTolerance)
}
