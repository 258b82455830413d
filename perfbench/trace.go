package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kvserver"
	rmetrics "repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/store"
)

// Traced passes record spans from the benchmark's own files only: the
// client span of each sampled request (its op's sent/done stamps), and
// one span per *Async or Scan call from a store.Store decorator placed
// above the store kvserver serves and around each shard inside
// store.NewSharded. Spans of one request are joined afterwards by key
// hash, kind and time containment; a request whose spans do not nest is
// counted in bench.span_mismatch_share.

// sampleMask selects the traced keys: a key is sampled when its hash has
// these bits clear, so the client and every decorator agree on the
// sample without sharing state.
const sampleMask = 7

// nestTolerance is how far (ns) a child span may poke out of its parent
// before the pair counts as a mismatch. Every stamp comes from the same
// monotonic clock, so only the clock read's own granularity is allowed.
const nestTolerance = 1000

func keyHash(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func sampled(k []byte) bool { return keyHash(k)&sampleMask == 0 }

// spanRec is one store-layer call: start and end of the call (for async
// ops, *Async entry to Wait return), and submitted when *Async returned.
type spanRec struct {
	start, submitted, end int64
	hash                  uint64
	kind                  opKind
}

// spanLog is a fixed-capacity, lock-free append log. Records past the
// capacity are dropped (and then show as mismatches).
type spanLog struct {
	recs []spanRec
	n    atomic.Int64
}

func (l *spanLog) add(r spanRec) {
	if i := l.n.Add(1) - 1; i < int64(len(l.recs)) {
		l.recs[i] = r
	}
}

// decorator wraps a store.Store and logs a span for every Scan and for
// every async point op on a sampled key. Everything else passes through.
type decorator struct {
	inner store.Store
	log   spanLog
	calls atomic.Int64 // async ops and scans, sampled or not
}

func newDecorator(inner store.Store, capacity int) *decorator {
	d := &decorator{inner: inner}
	d.log.recs = make([]spanRec, capacity)
	return d
}

// tracedPending completes a sampled async op's span. It calls the inner
// token's Wait exactly once (tokens are pooled) and is pooled itself.
type tracedPending struct {
	d     *decorator
	inner store.Pending
	rec   spanRec
}

var tracedPool = sync.Pool{New: func() any { return new(tracedPending) }}

func (p *tracedPending) Wait() (uint64, bool) {
	v, ok := p.inner.Wait()
	p.rec.end = now()
	p.d.log.add(p.rec)
	p.inner = nil
	tracedPool.Put(p)
	return v, ok
}

func (d *decorator) async(kind opKind, key []byte, submit func() store.Pending) store.Pending {
	d.calls.Add(1)
	if !sampled(key) {
		return submit()
	}
	start := now()
	inner := submit()
	p := tracedPool.Get().(*tracedPending)
	p.d, p.inner = d, inner
	p.rec = spanRec{start: start, submitted: now(), hash: keyHash(key), kind: kind}
	return p
}

func (d *decorator) GetAsync(key []byte) store.Pending {
	return d.async(opGet, key, func() store.Pending { return d.inner.GetAsync(key) })
}

func (d *decorator) PutAsync(key []byte, value uint64) store.Pending {
	return d.async(opPut, key, func() store.Pending { return d.inner.PutAsync(key, value) })
}

func (d *decorator) DeleteAsync(key []byte) store.Pending {
	return d.async(opDel, key, func() store.Pending { return d.inner.DeleteAsync(key) })
}

func (d *decorator) Scan(prefix []byte, limit int, fn store.Visitor) bool {
	d.calls.Add(1)
	start := now()
	truncated := d.inner.Scan(prefix, limit, fn)
	d.log.add(spanRec{start: start, end: now(), hash: keyHash(prefix), kind: opScan})
	return truncated
}

func (d *decorator) Get(key []byte) (uint64, bool)     { return d.inner.Get(key) }
func (d *decorator) Put(key []byte, value uint64) bool { return d.inner.Put(key, value) }
func (d *decorator) Delete(key []byte) bool            { return d.inner.Delete(key) }
func (d *decorator) Range(lo, hi []byte, limit int, fn store.Visitor) bool {
	return d.inner.Range(lo, hi, limit, fn)
}
func (d *decorator) Len() int                    { return d.inner.Len() }
func (d *decorator) Walk(fn store.Visitor) bool  { return d.inner.Walk(fn) }
func (d *decorator) RegisterObs(r *obs.Registry) { d.inner.RegisterObs(r) }
func (d *decorator) Close() error                { return d.inner.Close() }

// SaveSnapshot and LoadSnapshot make the decorator a store.Snapshotter, so
// a traced set-up loads the snapshot through the inner store's own layout
// (per-shard files for Sharded) exactly as the untraced one does.
func (d *decorator) SaveSnapshot(path string) error { return store.Save(d.inner, path) }
func (d *decorator) LoadSnapshot(path string) error { return store.Load(d.inner, path) }

// spanIndex finds a layer's spans by kind and key hash, sorted by start.
type spanIndex map[spanKey][]spanRec

type spanKey struct {
	hash uint64
	kind opKind
}

func indexSpans(l *spanLog) spanIndex {
	ix := make(spanIndex)
	n := min(int(l.n.Load()), len(l.recs))
	for _, r := range l.recs[:n] {
		k := spanKey{r.hash, r.kind}
		ix[k] = append(ix[k], r)
	}
	for _, s := range ix {
		sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	}
	return ix
}

// within returns the spans of (kind, hash) that nest inside [lo, hi].
func (ix spanIndex) within(kind opKind, hash uint64, lo, hi int64) []spanRec {
	s := ix[spanKey{hash, kind}]
	i := sort.Search(len(s), func(i int) bool { return s[i].start >= lo-nestTolerance })
	var out []spanRec
	for ; i < len(s) && s[i].start <= hi+nestTolerance; i++ {
		if s[i].end <= hi+nestTolerance {
			out = append(out, s[i])
		}
	}
	return out
}

// spanStats are the joined spans of one phase's measured requests (µs).
type spanStats struct {
	kvSelf, storeOp, submit, barrier, scan, mergeSelf []float64
	sampled, mismatched                               int
}

// joinSpans joins each sampled request of the phase's measured window
// with its store span and, when sharded, its shard spans.
func joinSpans(in *inputs, ph *phase, r *phaseRun, wire bool, top spanIndex, shards []spanIndex) spanStats {
	var st spanStats
	lo, hi := ph.warmup, ph.warmup+ph.measure
	for i := ph.first; i < ph.end; i++ {
		o := &in.ops[i]
		if o.due < lo || o.due >= hi {
			continue
		}
		var h uint64
		if o.kind == opScan {
			h = keyHash(in.token[o.key][:3])
		} else if k := in.stored[o.key]; sampled(k) {
			h = keyHash(k)
		} else {
			continue
		}
		st.sampled++
		sent := r.t0 + o.due + int64(o.sent)
		cands := top.within(o.kind, h, sent, o.done)
		if len(cands) != 1 {
			st.mismatched++
			continue
		}
		s := cands[0]
		dur := float64(s.end-s.start) / 1e3
		client := float64(o.done-sent) / 1e3
		var children []spanRec
		for _, ix := range shards {
			children = append(children, ix.within(o.kind, h, s.start, s.end)...)
		}
		if o.kind == opScan {
			if len(children) != len(shards) {
				st.mismatched++
				continue
			}
			st.barrier = append(st.barrier, client-dur)
			st.scan = append(st.scan, dur)
			if len(shards) > 0 {
				st.mergeSelf = append(st.mergeSelf, dur-float64(coverage(children))/1e3)
			}
			continue
		}
		if len(shards) > 0 && len(children) != 1 {
			st.mismatched++
			continue
		}
		if wire {
			st.kvSelf = append(st.kvSelf, client-dur)
		}
		st.storeOp = append(st.storeOp, dur)
		st.submit = append(st.submit, float64(s.submitted-s.start)/1e3)
	}
	return st
}

// coverage is the length of the union of the spans' intervals.
func coverage(s []spanRec) int64 {
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, curS, curE int64
	for i, r := range s {
		if i == 0 || r.start > curE {
			total += curE - curS
			curS, curE = r.start, r.end
		} else if r.end > curE {
			curE = r.end
		}
	}
	return total + curE - curS
}

// layerSnap is one reading of every layer's counters, taken at a mark.
type layerSnap struct {
	index        map[string]int64 // engine and olc counters, summed over instances
	queue, exec  *rmetrics.Histogram
	pipe         kvserver.PipelineStats
	written, got int64 // client request and response bytes
	shardCalls   []int64
	rt           obs.RuntimeSnapshot
	rm           []metrics.Sample
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// rmDelta is the change of runtime metric i between two readings.
func rmDelta(a, b []metrics.Sample, i int) float64 {
	f := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return f(b[i].Value) - f(a[i].Value)
}
