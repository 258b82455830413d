// Command perfbench is the repository's benchmark. It runs one workload
// against the production path (store, kvserver, pctt, olc) in-process,
// offering load open-loop at two fixed Poisson rates, checks every
// response, and prints every metric by name and unit; the last line of
// standard output is one JSON object. See README.md.
//
//	bash perfbench/run.sh --workload ipgeo-wire --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

// workloadSpec is one named workload: its data, its topology, and its two
// offered rates.
type workloadSpec struct {
	name    string
	dataset string
	keys    int
	preload int // keys in the snapshot (0 = all)
	wire    bool
	shards  int
	workers int // P-CTT workers (0 = direct olc)
	mix     int
	zipf    float64 // Zipf exponent over /8 prefixes (IPGEO mix)
	low     float64 // offered ops/s, about a tenth of capacity
	high    float64 // offered ops/s, about half of capacity
	setups  int     // set-ups timed per run; setup_s is their median
}

const (
	mixIPGeo = iota // 50% GET / 50% PUT over preloaded keys
	mixDict         // 25% GET, 65% PUT (a third insert reserve words), 5% DEL, 5% SCAN
)

var workloads = []*workloadSpec{
	{name: "ipgeo-wire", dataset: workload.IPGEO, keys: 100_000, wire: true, workers: 2,
		mix: mixIPGeo, zipf: 1.25, low: 20_000, high: 100_000, setups: 5},
	{name: "dict-shards", dataset: workload.DICT, keys: 200_000, preload: 100_000, wire: true, shards: 2,
		mix: mixDict, low: 30_000, high: 100_000, setups: 15},
	{name: "ipgeo-inproc", dataset: workload.IPGEO, keys: 300_000, workers: 2,
		mix: mixIPGeo, zipf: 1.25, low: 100_000, high: 200_000, setups: 3},
}

// maxMedianLag bounds the generator's median lag behind its schedule
// (ns); a run that falls further behind fails instead of reporting.
const maxMedianLag = 200_000

const warmup = int64(time.Second)

// wireConns is the number of client connections on the wire workloads.
const wireConns = 2

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 48, "measured seconds per run, split across the rates")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	var w *workloadSpec
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 {
		var names []string
		for _, c := range workloads {
			names = append(names, c.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed n --seconds s --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// plan lays out the passes of a run. The untraced run is one pass: low,
// then high, each over half the measured seconds. The traced run first
// repeats the untraced configuration at high (the base of
// bench.trace_overhead), then builds the traced configuration and runs
// low and high.
func plan(w *workloadSpec, seconds int, traced bool) []*pass {
	ph := func(name string, rate float64, secs int) *phase {
		return &phase{name: name, rate: rate, warmup: warmup, measure: int64(max(secs, 1)) * int64(time.Second)}
	}
	if !traced {
		return []*pass{{phases: []*phase{ph("low", w.low, seconds/2), ph("high", w.high, seconds-seconds/2)}}}
	}
	third := seconds / 3
	return []*pass{
		{phases: []*phase{ph("high", w.high, third)}},
		{traced: true, phases: []*phase{ph("low", w.low, third), ph("high", w.high, seconds-2*third)}},
	}
}

// passOut is what one pass measured.
type passOut struct {
	setups   []float64 // seconds
	runs     []*phaseRun
	spaceAmp float64
	spans    []spanStats // traced passes, per phase
}

func runWorkload(w *workloadSpec, seed int64, seconds int, traced bool) (*result, error) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset (100)"
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d nproc=%d GOGC=%s go=%s\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), gogc, runtime.Version())
	passes := plan(w, seconds, traced)
	in, err := buildInputs(w, seed, passes)
	if err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: offered rates low=%.0f ops/s high=%.0f ops/s, keys=%d preloaded=%d, warm-up %s per rate\n",
		w.low, w.high, len(in.stored), in.preloaded, time.Duration(warmup))
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap, err := writeSnapshot(w, in, dir)
	if err != nil {
		return nil, err
	}
	streams := 1
	if w.wire {
		streams = wireConns
	}
	chk := newChecker(in, streams)
	ctr := &counters{}
	var outs []*passOut
	for k, ps := range passes {
		setups := 1
		if k == 0 && !traced {
			setups = w.setups
		}
		po, err := runPass(w, in, ps, snap, chk, ctr, setups)
		if err != nil {
			return nil, err
		}
		outs = append(outs, po)
	}
	chk.report()
	res := &result{Attempted: int64(len(in.ops)), Failed: chk.failed.Load(), Metrics: map[string]metricOut{}}
	res.Correct = res.Failed == 0

	var stats []*phaseStats
	for k, ps := range passes {
		for j, ph := range ps.phases {
			st := computePhase(in, ph, outs[k].runs[j])
			stats = append(stats, st)
			st.print(ph, ps.traced)
			if st.lagP50 > maxMedianLag/1e3 {
				return nil, fmt.Errorf("%s rate: generator median lag %.1f µs exceeds %d µs; the load was not offered as scheduled",
					ph.name, st.lagP50, maxMedianLag/1000)
			}
		}
	}
	fmt.Printf("perfbench: failed/attempted %d/%d\n", res.Failed, res.Attempted)
	if !traced {
		fmt.Printf("perfbench: set-ups (s) %v\n", outs[0].setups)
		endToEnd(res, outs[0], stats[0], stats[1])
	} else {
		perLayer(res, outs[1], stats[0], stats[1], stats[2])
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// runPass sets the system up (setups times, keeping the last), drives the
// pass's phases, and checks the final state.
func runPass(w *workloadSpec, in *inputs, ps *pass, snap string, chk *checker, ctr *counters, setups int) (*passOut, error) {
	first, end := ps.phases[0].first, ps.phases[len(ps.phases)-1].end
	chk.begin(first, end)
	spanCap := 0
	if ps.traced {
		for i := first; i < end; i++ {
			if o := &in.ops[i]; o.kind == opScan || sampled(in.stored[o.key]) {
				spanCap++
			}
		}
	}
	out := &passOut{}
	heapBase := liveHeap()
	var e *env
	for k := 0; k < setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		runtime.GC()
		t := now()
		var err error
		if e, err = openEnv(w, snap, spanCap); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, float64(now()-t)/1e9)
	}
	// The set-up store is the only thing allocated since heapBase that is
	// still live: every input was generated before heapBase.
	if !ps.traced {
		preload := 0
		for i := int32(0); i < int32(in.preloaded); i++ {
			preload += in.keyBytes(i)
		}
		heap := liveHeap() - heapBase
		out.spaceAmp = float64(heap) / float64(preload)
		fmt.Printf("perfbench: live heap after set-up %d B for %d B of preloaded keys+values (space_amp %.3f)\n", heap, preload, out.spaceAmp)
	}

	var (
		snd   sender
		wc    *wireClient
		wg    sync.WaitGroup
		errMu sync.Mutex
		rerr  error
	)
	if w.wire {
		wc = &wireClient{in: in, bufs: make([][]byte, wireConns)}
		for c := 0; c < wireConns; c++ {
			conn, err := dial(e.ln.Addr().String())
			if err != nil {
				return nil, err
			}
			wc.conns = append(wc.conns, conn)
		}
		for c := range wc.conns {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if err := wc.readConn(c, first, end, ctr, chk); err != nil {
					errMu.Lock()
					rerr = err
					errMu.Unlock()
				}
			}(c)
		}
		snd = wc
	} else {
		ic := &inprocClient{in: in, st: e.st, toks: make(chan token, 1<<16)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ic.complete(end-first, ctr, chk)
		}()
		snd = ic
	}
	var snapFn func() *layerSnap
	if ps.traced {
		snapFn = func() *layerSnap { return e.snapshot(wc) }
	}
	for _, ph := range ps.phases {
		done := make(chan *phaseRun)
		go func() { done <- generate(ph, in, snd, ctr, snapFn) }()
		out.runs = append(out.runs, <-done)
		if wc != nil && wc.werr != nil {
			return nil, wc.werr
		}
		if err := drain(ctr, ph.end, 30*time.Second); err != nil {
			errMu.Lock()
			defer errMu.Unlock()
			return nil, fmt.Errorf("%s rate: %w (client: %v)", ph.name, err, rerr)
		}
	}
	wg.Wait()
	if rerr != nil {
		return nil, rerr
	}
	if wc != nil {
		for _, c := range wc.conns {
			c.Close()
		}
		wc = nil
	}
	snd = nil
	e.stopServing()
	if ps.traced {
		top := indexSpans(&e.top.log)
		var shards []spanIndex
		for _, d := range e.shards {
			shards = append(shards, indexSpans(&d.log))
		}
		for j, ph := range ps.phases {
			out.spans = append(out.spans, joinSpans(in, ph, out.runs[j], w.wire, top, shards))
		}
		chk.final(e.st, end)
	} else {
		// Printed, not gated: after traffic the heap also holds whatever
		// the engine retained from its largest batches, which varies from
		// run to run (see README.md).
		heap := liveHeap() - heapBase
		live := chk.final(e.st, end)
		fmt.Printf("perfbench: live heap after the run %d B for %d B of keys+values (ratio %.3f)\n", heap, live, float64(heap)/float64(live))
	}
	return out, e.st.Close()
}

// liveHeap forces a full collection (twice, so pooled objects are freed
// too) and returns the bytes still live.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
