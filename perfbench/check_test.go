package main

import (
	"testing"

	"repro/internal/store"
)

// fixture: keys aaa1, aaa2 preloaded, bbb1 in reserve; ops
//
//	0 PUT aaa1   1 GET aaa1   2 SCAN aaa   3 DEL aaa2   4 GET aaa2   5 PUT bbb1
func fixture() (*inputs, *checker) {
	in := &inputs{preloaded: 2}
	for _, t := range []string{"aaa1", "aaa2", "bbb1"} {
		in.token = append(in.token, []byte(t))
		in.stored = append(in.stored, append([]byte(t), 0))
	}
	in.ops = []op{{kind: opPut, key: 0}, {kind: opGet, key: 0}, {kind: opScan, key: 0},
		{kind: opDel, key: 1}, {kind: opGet, key: 1}, {kind: opPut, key: 2}}
	c := newChecker(in, 1)
	c.begin(0, len(in.ops))
	return in, c
}

func TestCheckerCountsInjectedErrors(t *testing.T) {
	row := func(k string, key int32, seq int) scanRow { return scanRow{[]byte(k), value(key, seq)} }
	cases := []struct {
		name  string
		check func(c *checker)
		fails int64
	}{
		{"GET preload value", func(c *checker) { c.get(1, true, value(0, 0), 2) }, 0},
		{"GET value of a sent PUT", func(c *checker) { c.get(1, true, value(0, 1), 2) }, 0},
		{"GET NOT_FOUND after a sent DEL", func(c *checker) { c.get(4, false, 0, 5) }, 0},
		{"GET value of another key", func(c *checker) { c.get(1, true, value(1, 0), 2) }, 1},
		{"GET value of a PUT not yet sent", func(c *checker) { c.get(1, true, value(0, 1), 0) }, 1},
		{"GET value no PUT wrote", func(c *checker) { c.get(1, true, value(0, 2), 6) }, 1},
		{"GET NOT_FOUND of a preloaded key", func(c *checker) { c.get(1, false, 0, 2) }, 1},
		{"GET NOT_FOUND before the DEL was sent", func(c *checker) { c.get(4, false, 0, 3) }, 1},
		{"SCAN ascending", func(c *checker) { c.scan(2, []scanRow{row("aaa1", 0, 1), row("aaa2", 1, 0)}, 3) }, 0},
		{"SCAN out of order", func(c *checker) { c.scan(2, []scanRow{row("aaa2", 1, 0), row("aaa1", 0, 1)}, 3) }, 1},
		{"SCAN duplicate row", func(c *checker) { c.scan(2, []scanRow{row("aaa1", 0, 1), row("aaa1", 0, 1)}, 3) }, 1},
		{"SCAN row outside the prefix", func(c *checker) { c.scan(2, []scanRow{row("bbb1", 2, 6)}, 6) }, 1},
		{"SCAN row with a wrong value", func(c *checker) { c.scan(2, []scanRow{row("aaa1", 1, 0)}, 3) }, 1},
		{"SCAN over the limit", func(c *checker) {
			rows := make([]scanRow, scanLimit+1)
			for i := range rows {
				rows[i] = row("aaa1", 0, 0)
			}
			c.scan(2, rows, 3)
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := fixture()
			tc.check(c)
			if got := c.failed.Load(); got != tc.fails {
				t.Errorf("failures = %d, want %d (%v)", got, tc.fails, c.notes)
			}
		})
	}
}

func TestCheckerFinalState(t *testing.T) {
	cases := []struct {
		name  string
		state map[string]uint64 // stored key -> value
		fails int64
	}{
		{"every stream's last write", map[string]uint64{"aaa1\x00": value(0, 1), "bbb1\x00": value(2, 6)}, 0},
		{"stale value", map[string]uint64{"aaa1\x00": value(0, 0), "bbb1\x00": value(2, 6)}, 1},
		{"deleted key present", map[string]uint64{"aaa1\x00": value(0, 1), "aaa2\x00": value(1, 0), "bbb1\x00": value(2, 6)}, 1},
		{"written key missing", map[string]uint64{"aaa1\x00": value(0, 1)}, 1},
		{"stray key", map[string]uint64{"aaa1\x00": value(0, 1), "bbb1\x00": value(2, 6), "zzz\x00": value(0, 1)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, c := fixture()
			st := store.NewDirect()
			for k, v := range tc.state {
				st.Put([]byte(k), v)
			}
			live := c.final(st, len(in.ops))
			if got := c.failed.Load(); got != tc.fails {
				t.Errorf("failures = %d, want %d (%v)", got, tc.fails, c.notes)
			}
			if tc.fails == 0 && live != in.keyBytes(0)+in.keyBytes(2) {
				t.Errorf("live bytes = %d, want %d", live, in.keyBytes(0)+in.keyBytes(2))
			}
		})
	}
}
