package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// checker validates every response against the generated inputs. Values
// are self-describing (see value), so a response can be checked without
// replaying the store:
//   - GET returns the key's preload value or the value of a PUT to that
//     key already sent in this pass;
//   - NOT_FOUND is valid only for a key never preloaded, or one a DEL
//     already sent in this pass targeted;
//   - SCAN rows are strictly ascending, inside the prefix, at most the
//     limit, and each row's value passes the GET rule;
//   - after the pass, every key holds some stream's last write to it (or
//     its preload when no stream wrote it), and no other key exists.
type checker struct {
	in      *inputs
	streams int

	// Per pass, set by begin before any of its requests is sent.
	first    int     // global index of the pass's first op
	firstDel []int32 // per key, global index of the pass's first DEL

	failed atomic.Int64
	mu     sync.Mutex
	notes  []string
}

func newChecker(in *inputs, streams int) *checker {
	return &checker{in: in, streams: streams, firstDel: make([]int32, len(in.stored))}
}

// begin prepares the per-pass state for ops [first, end).
func (c *checker) begin(first, end int) {
	c.first = first
	for i := range c.firstDel {
		c.firstDel[i] = math.MaxInt32
	}
	for i := end - 1; i >= first; i-- {
		if o := &c.in.ops[i]; o.kind == opDel {
			c.firstDel[o.key] = int32(i)
		}
	}
}

// fail counts one failure and keeps the first few descriptions.
func (c *checker) fail(format string, args ...any) {
	if c.failed.Add(1) <= 5 {
		c.mu.Lock()
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
		c.mu.Unlock()
	}
}

func (c *checker) report() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
}

// valueOK reports whether key may hold v once ops below sent were sent.
func (c *checker) valueOK(key int32, v uint64, sent int) bool {
	k, seq := splitValue(v)
	if k != key {
		return false
	}
	if seq == 0 {
		return int(key) < c.in.preloaded
	}
	j := seq - 1
	return j >= c.first && j < sent && c.in.ops[j].kind == opPut && c.in.ops[j].key == key
}

func (c *checker) absentOK(key int32, sent int) bool {
	return int(key) >= c.in.preloaded || int(c.firstDel[key]) < sent
}

// get checks the response to GET op i, read when ops below sent were sent.
func (c *checker) get(i int, found bool, v uint64, sent int) {
	key := c.in.ops[i].key
	if found && !c.valueOK(key, v, sent) {
		c.fail("op %d GET key %d returned value %#x", i, key, v)
	} else if !found && !c.absentOK(key, sent) {
		c.fail("op %d GET key %d returned NOT_FOUND", i, key)
	}
}

// clientKey is key i as responses spell it.
func (c *checker) clientKey(i int32) []byte {
	if c.in.token != nil {
		return c.in.token[i]
	}
	return c.in.stored[i]
}

// scanRow is one SCAN result row.
type scanRow struct {
	key []byte
	val uint64
}

// scan checks the rows of SCAN op i.
func (c *checker) scan(i int, rows []scanRow, sent int) {
	prefix := c.clientKey(c.in.ops[i].key)[:3]
	if len(rows) > scanLimit {
		c.fail("op %d SCAN %q returned %d rows, limit %d", i, prefix, len(rows), scanLimit)
		return
	}
	for r, row := range rows {
		if !bytes.HasPrefix(row.key, prefix) {
			c.fail("op %d SCAN %q row %q outside the prefix", i, prefix, row.key)
			return
		}
		if r > 0 && bytes.Compare(rows[r-1].key, row.key) >= 0 {
			c.fail("op %d SCAN %q rows %q, %q not strictly ascending", i, prefix, rows[r-1].key, row.key)
			return
		}
		k, _ := splitValue(row.val)
		if k < 0 || int(k) >= len(c.in.stored) || !bytes.Equal(c.clientKey(k), row.key) || !c.valueOK(k, row.val, sent) {
			c.fail("op %d SCAN %q row %q has value %#x", i, prefix, row.key, row.val)
			return
		}
	}
}

// final walks the store after pass ops [first, end) all completed and
// checks every key's state. It returns the user bytes (key + 8 per value)
// the store holds.
func (c *checker) final(st store.Store, end int) (liveBytes int) {
	n := len(c.in.stored)
	// last[s][k] is 1 + the global index of stream s's last write to k.
	last := make([][]int32, c.streams)
	for s := range last {
		last[s] = make([]int32, n)
	}
	for i := c.first; i < end; i++ {
		if o := &c.in.ops[i]; o.kind == opPut || o.kind == opDel {
			last[i%c.streams][o.key] = int32(i + 1)
		}
	}
	// candidate reports whether (present, v) is a legal final state of k.
	candidate := func(k int32, present bool, v uint64) bool {
		wrote := false
		for s := range last {
			j := last[s][k] - 1
			if j < 0 {
				continue
			}
			wrote = true
			if o := &c.in.ops[j]; o.kind == opDel && !present || o.kind == opPut && present && v == value(k, int(j)+1) {
				return true
			}
		}
		if !wrote {
			if int(k) < c.in.preloaded {
				return present && v == value(k, 0)
			}
			return !present
		}
		return false
	}
	seen := make([]bool, n)
	st.Walk(func(kb []byte, v uint64) bool {
		k, _ := splitValue(v)
		if k < 0 || int(k) >= n || !bytes.Equal(c.in.stored[k], kb) {
			c.fail("final state: stray key %q = %#x", kb, v)
			return true
		}
		seen[k] = true
		liveBytes += c.in.keyBytes(k)
		if !candidate(k, true, v) {
			c.fail("final state: key %q = %#x is no stream's last write", kb, v)
		}
		return true
	})
	for k := range seen {
		if !seen[k] && !candidate(int32(k), false, 0) {
			c.fail("final state: key %q missing", c.in.stored[k])
		}
	}
	return liveBytes
}
