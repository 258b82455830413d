package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/kvserver"
	rmetrics "repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pctt"
	"repro/internal/store"
)

// env is one set-up of the system under test, built the way dcart-kv
// builds it: store.Open (or, traced, the same topology with decorators),
// kvserver.NewStore with the default pipeline depth and flush cadence, the
// preload restored with LoadSnapshot, a loopback listener.
type env struct {
	st       store.Store // what the client drives (kvserver's store on the wire)
	srv      *kvserver.Server
	ln       net.Listener
	engines  []*pctt.Engine
	counters []*rmetrics.Set // one per index instance
	top      *decorator      // traced only
	shards   []*decorator    // traced and sharded only

	accepted sync.WaitGroup // accept loop and connection handlers
}

// openEnv builds and loads one env. spanCap sizes each decorator's log;
// zero builds the untraced configuration.
func openEnv(w *workloadSpec, snap string, spanCap int) (*env, error) {
	e := &env{}
	cfg := store.Config{Shards: w.shards, Engine: pctt.Config{Workers: w.workers}}
	var st store.Store
	if spanCap == 0 {
		st = store.Open(cfg)
	} else {
		cfg.Engine.RecordLatency = true
		leaf := func(int) store.Store {
			if cfg.Engine.Workers > 0 {
				return store.NewBatched(cfg.Engine)
			}
			return store.NewDirect()
		}
		if w.shards > 1 {
			st = store.NewSharded(w.shards, func(i int) store.Store {
				d := newDecorator(leaf(i), spanCap)
				e.shards = append(e.shards, d)
				return d
			})
		} else {
			st = leaf(0)
		}
		e.top = newDecorator(st, spanCap)
	}
	e.collect(st)
	if e.top != nil {
		st = e.top
	}
	e.st = st
	if !w.wire {
		if err := store.Load(st, snap); err != nil {
			return nil, fmt.Errorf("load snapshot: %w", err)
		}
		return e, nil
	}
	e.srv = kvserver.NewStore(st)
	e.srv.SetPipeline(kvserver.DefaultPipelineDepth, kvserver.DefaultFlushEvery)
	if err := e.srv.LoadSnapshot(snap); err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.ln = ln
	e.accepted.Add(1)
	go func() {
		defer e.accepted.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			e.accepted.Add(1)
			go func() {
				defer e.accepted.Done()
				e.srv.Serve(c)
			}()
		}
	}()
	return e, nil
}

// collect finds the engines and index counter sets under st.
func (e *env) collect(st store.Store) {
	switch s := st.(type) {
	case *decorator:
		e.collect(s.inner)
	case *store.Sharded:
		for i := 0; i < s.NumShards(); i++ {
			e.collect(s.Shard(i))
		}
	case *store.Batched:
		e.engines = append(e.engines, s.Engine())
		e.counters = append(e.counters, s.Metrics())
	case *store.Direct:
		e.counters = append(e.counters, s.Metrics())
	}
}

// stopServing closes the listener and waits for every connection handler
// to return; the client must have closed its connections.
func (e *env) stopServing() {
	if e.ln != nil {
		e.ln.Close()
		e.ln = nil
	}
	e.accepted.Wait()
}

func (e *env) close() error {
	e.stopServing()
	return e.st.Close()
}

func dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return c, nil
}

// snapshot reads every layer's counters (traced passes, at each mark).
func (e *env) snapshot(wc *wireClient) *layerSnap {
	s := &layerSnap{index: e.indexCounters(), rt: obs.ReadRuntime(), rm: readRuntime()}
	if len(e.engines) > 0 {
		s.queue, s.exec = rmetrics.NewHistogram(), rmetrics.NewHistogram()
		for _, en := range e.engines {
			s.queue.Merge(en.QueueWaitHistogram())
			s.exec.Merge(en.ExecHistogram())
		}
	}
	if e.srv != nil {
		s.pipe = e.srv.PipelineStats()
	}
	if wc != nil {
		s.written, s.got = wc.written.Load(), wc.read.Load()
	}
	for _, d := range e.shards {
		s.shardCalls = append(s.shardCalls, d.calls.Load())
	}
	return s
}

// writeSnapshot saves the preload the way a served store saves it, into
// dir, and returns the path to load it from. Direct sub-stores write the
// same file layout as batched ones.
func writeSnapshot(w *workloadSpec, in *inputs, dir string) (string, error) {
	st := store.Open(store.Config{Shards: w.shards})
	for i := 0; i < in.preloaded; i++ {
		st.Put(in.stored[i], value(int32(i), 0))
	}
	path := filepath.Join(dir, "preload.snap")
	err := store.Save(st, path)
	st.Close()
	if err != nil {
		return "", fmt.Errorf("save snapshot: %w", err)
	}
	return path, nil
}

// indexCounters sums the index and engine counters over every instance.
func (e *env) indexCounters() map[string]int64 {
	sum := make(map[string]int64)
	for _, s := range e.counters {
		for k, v := range s.Snapshot() {
			sum[k] += v
		}
	}
	return sum
}
