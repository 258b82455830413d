package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/store"
)

var epoch = time.Now()

// now is the benchmark clock: monotonic ns since start.
func now() int64 { return int64(time.Since(epoch)) }

// maxBatch bounds the ops one generator wake-up hands over before it
// flushes, so a late generator still flushes every few µs.
const maxBatch = 64

// sender is how the generator hands over one op: onto a connection's
// write buffer (wire) or into the store's async surface (in-process).
type sender interface {
	submit(i int)
	flush()
}

// mark is a point-in-time reading taken on the generator thread.
type mark struct {
	at        int64 // benchmark clock
	cpu       int64 // process user+sys ns
	threadCPU int64 // generator thread user+sys ns
	sent      int64
	completed int64
	layers    *layerSnap // traced passes only
}

// phaseRun is what one phase's generator observed.
type phaseRun struct {
	t0                 int64
	start, mid, finish mark
}

// counters are the run-wide progress counters: ops handed to the system
// and ops whose response arrived, as global op indices.
type counters struct {
	sent      atomic.Int64
	completed atomic.Int64
}

func rusageNs(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

const rusageThread = 1 // RUSAGE_THREAD

// generate drives one phase open-loop: it sleeps until each op is due and
// hands over everything due at once. It runs on its own locked OS thread
// with 1 µs timer slack, so it never spins and wakes close to each due
// time; the thread is never unlocked and exits with the goroutine, taking
// the changed slack with it.
func generate(ph *phase, in *inputs, snd sender, ctr *counters, snap func() *layerSnap) *phaseRun {
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, 29 /* PR_SET_TIMERSLACK */, 1000, 0); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: timer slack stays at its default:", errno)
	}
	ops := in.ops[ph.first:ph.end]
	r := &phaseRun{t0: now()}
	marks := []struct {
		at int64
		m  *mark
	}{{ph.warmup, &r.start}, {ph.warmup + ph.measure/2, &r.mid}, {ph.warmup + ph.measure, &r.finish}}
	take := func(m *mark) {
		m.at = now()
		m.cpu = rusageNs(syscall.RUSAGE_SELF)
		m.threadCPU = rusageNs(rusageThread)
		m.sent, m.completed = ctr.sent.Load(), ctr.completed.Load()
		if snap != nil {
			m.layers = snap()
		}
	}
	i := 0
	for i < len(ops) || len(marks) > 0 {
		t := now() - r.t0
		next := int64(1 << 62)
		if i < len(ops) {
			next = ops[i].due
		}
		if len(marks) > 0 && marks[0].at <= next {
			if marks[0].at > t {
				sleep(marks[0].at - t)
				continue
			}
			take(marks[0].m)
			marks = marks[1:]
			continue
		}
		if next > t {
			sleep(next - t)
			continue
		}
		j := i
		for j < len(ops) && ops[j].due <= t && j-i < maxBatch {
			ops[j].sent = uint32(min(t-ops[j].due, 1<<32-1))
			ctr.sent.Store(int64(ph.first + j + 1))
			snd.submit(ph.first + j)
			j++
		}
		snd.flush()
		after := now() - r.t0
		for k := i; k < j; k++ {
			ops[k].lag = uint32(min(after-ops[k].due, 1<<32-1))
		}
		i = j
	}
	return r
}

func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// drain waits until every op below end has completed.
func drain(ctr *counters, end int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for ctr.completed.Load() < int64(end) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d ops still outstanding after %s", int64(end)-ctr.completed.Load(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// wireClient is the loopback client: the generator appends request lines
// to per-connection buffers and writes them out at each flush; one reader
// goroutine per connection matches responses to that connection's ops in
// order (op i travels on connection i % len(conns)).
type wireClient struct {
	in      *inputs
	conns   []net.Conn
	bufs    [][]byte
	written atomic.Int64 // request bytes
	read    atomic.Int64 // response bytes
	werr    error        // first write error; later flushes drop their bytes
}

func (w *wireClient) submit(i int) {
	o := &w.in.ops[i]
	c := i % len(w.conns)
	b := w.bufs[c]
	tok := w.in.token[o.key]
	switch o.kind {
	case opGet:
		b = append(append(b, "GET "...), tok...)
	case opPut:
		b = append(append(b, "PUT "...), tok...)
		b = strconv.AppendUint(append(b, ' '), value(o.key, i+1), 10)
	case opDel:
		b = append(append(b, "DEL "...), tok...)
	case opScan:
		b = append(append(b, "SCAN "...), tok[:3]...)
		b = strconv.AppendInt(append(b, ' '), scanLimit, 10)
	}
	w.bufs[c] = append(b, '\n')
}

func (w *wireClient) flush() {
	for c, b := range w.bufs {
		if len(b) == 0 {
			continue
		}
		if w.werr == nil {
			if _, err := w.conns[c].Write(b); err != nil {
				w.werr = fmt.Errorf("write to connection %d: %w", c, err)
			}
			w.written.Add(int64(len(b)))
		}
		w.bufs[c] = b[:0]
	}
}

// readConn completes connection c's ops among [first, end) in order.
func (w *wireClient) readConn(c, first, end int, ctr *counters, chk *checker) error {
	r := bufio.NewReaderSize(w.conns[c], 64<<10)
	var rows []scanRow
	line := func() ([]byte, error) {
		b, err := r.ReadSlice('\n')
		w.read.Add(int64(len(b)))
		return bytes.TrimRight(b, "\r\n"), err
	}
	i := first + ((c-first%len(w.conns))+len(w.conns))%len(w.conns)
	for ; i < end; i += len(w.conns) {
		o := &w.in.ops[i]
		b, err := line()
		if err != nil {
			return fmt.Errorf("read response to op %d: %w", i, err)
		}
		switch o.kind {
		case opGet:
			if v, ok := bytes.CutPrefix(b, []byte("VALUE ")); ok {
				val, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					chk.fail("op %d GET: bad response %q", i, b)
				} else {
					chk.get(i, true, val, int(ctr.sent.Load()))
				}
			} else if string(b) == "NOT_FOUND" {
				chk.get(i, false, 0, int(ctr.sent.Load()))
			} else {
				chk.fail("op %d GET: response %q", i, b)
			}
		case opPut:
			if s := string(b); s != "OK" && s != "OK replaced" {
				chk.fail("op %d PUT: response %q", i, b)
			}
		case opDel:
			if s := string(b); s != "OK" && s != "NOT_FOUND" {
				chk.fail("op %d DEL: response %q", i, b)
			}
		case opScan:
			rows = rows[:0]
			for bytes.HasPrefix(b, []byte("KEY ")) {
				k, v, _ := bytes.Cut(b[4:], []byte(" "))
				val, perr := strconv.ParseUint(string(v), 10, 64)
				if perr != nil {
					chk.fail("op %d SCAN: bad row %q", i, b)
				}
				rows = append(rows, scanRow{key: append([]byte(nil), k...), val: val})
				if b, err = line(); err != nil {
					return fmt.Errorf("read response to op %d: %w", i, err)
				}
			}
			if string(b) != "END" {
				chk.fail("op %d SCAN: terminator %q", i, b)
			}
			chk.scan(i, rows, int(ctr.sent.Load()))
		}
		o.done = now()
		ctr.completed.Add(1)
	}
	return nil
}

// inprocClient drives the store's async surface directly: the generator
// submits, one completer goroutine waits on the tokens in submission
// order.
type inprocClient struct {
	in *inputs
	st store.Store
	// toks carries tokens to the completer. Its 1<<16 slots exceed the
	// engine's default in-flight bound (16384 ops), so the generator only
	// ever blocks on the store's own backpressure.
	toks chan token
}

type token struct {
	i int
	p store.Pending
}

func (p *inprocClient) submit(i int) {
	o := &p.in.ops[i]
	k := p.in.stored[o.key]
	var t store.Pending
	switch o.kind {
	case opGet:
		t = p.st.GetAsync(k)
	case opPut:
		t = p.st.PutAsync(k, value(o.key, i+1))
	case opDel:
		t = p.st.DeleteAsync(k)
	}
	p.toks <- token{i, t}
}

func (p *inprocClient) flush() {}

// complete waits on n tokens in submission order.
func (p *inprocClient) complete(n int, ctr *counters, chk *checker) {
	for ; n > 0; n-- {
		t := <-p.toks
		v, found := t.p.Wait()
		o := &p.in.ops[t.i]
		o.done = now()
		if o.kind == opGet {
			chk.get(t.i, found, v, int(ctr.sent.Load()))
		}
		ctr.completed.Add(1)
	}
}
