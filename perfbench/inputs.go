package main

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/workload"
)

// opKind is one client operation type.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDel
	opScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "del", "scan"}

// scanLimit is the row limit every SCAN asks for.
const scanLimit = 32

// op is one scheduled request and, once the run is over, its outcome. The
// generator writes sent and lag, the completer writes done; all other
// fields are fixed before anything is timed.
type op struct {
	due  int64  // intended send time, ns after its phase started
	done int64  // response (or Wait return) on the benchmark clock; 0 = none
	key  int32  // key index; for SCAN, the word whose first 3 bytes are the prefix
	sent uint32 // ns from due until the generator picked the op up
	lag  uint32 // ns from due until the op was handed to the system
	kind opKind
}

// phase is one fixed offered rate: a warm-up second, then measure seconds
// whose latencies, CPU and counters are reported.
type phase struct {
	name    string // "low" or "high"
	rate    float64
	warmup  int64 // ns
	measure int64 // ns
	first   int   // index of the phase's first op in inputs.ops
	end     int   // one past its last op
}

// pass is one store lifetime: set up from the snapshot, run its phases,
// check the final state.
type pass struct {
	traced bool
	phases []*phase
}

// inputs is everything the run sends, generated from the seed before any
// timing starts.
type inputs struct {
	// stored[i] is key i exactly as the store holds it; token[i] is the
	// client's spelling on the wire (nil for the in-process workload).
	stored [][]byte
	token  [][]byte
	// Keys [0, preloaded) are in the snapshot; the rest are reserve keys
	// that only PUTs create.
	preloaded int
	ops       []op
}

// value is the self-describing value written for key by global op seq
// (seq 0 is the preload): the checker recovers the key and the writer.
func value(key int32, seq int) uint64 { return uint64(key)<<32 | uint64(uint32(seq)) }

func splitValue(v uint64) (key int32, seq int) { return int32(v >> 32), int(uint32(v)) }

// genKeys builds the key universe of a workload.
func genKeys(w *workloadSpec, seed int64) (stored, token [][]byte, err error) {
	gen, err := workload.Generate(workload.Spec{Name: w.dataset, NumKeys: w.keys, NumOps: 1, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s keys: %w", w.dataset, err)
	}
	stored = gen.Keys
	if !w.wire {
		return stored, nil, nil
	}
	token = make([][]byte, len(stored))
	for i, k := range stored {
		switch w.dataset {
		case workload.IPGEO: // raw address bytes travel as hex
			token[i] = []byte(hex.EncodeToString(k))
			stored[i] = append(append([]byte(nil), token[i]...), 0)
		default: // DICT words are printable and already 0-terminated
			token[i] = k[:len(k)-1]
		}
	}
	return stored, token, nil
}

// prefixPicker draws IPGEO keys: a /8 prefix from a Zipf law over the
// prefixes ranked by how many keys they hold, then a uniform key in it.
type prefixPicker struct {
	groups [][]int32
	zipf   *rand.Zipf
	rng    *rand.Rand
}

func newPrefixPicker(rng *rand.Rand, raw [][]byte, n int, s float64) *prefixPicker {
	by := make(map[byte][]int32)
	for i := 0; i < n; i++ {
		b := raw[i][0]
		by[b] = append(by[b], int32(i))
	}
	groups := make([][]int32, 0, len(by))
	for _, g := range by {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i]) != len(groups[j]) {
			return len(groups[i]) > len(groups[j])
		}
		return groups[i][0] < groups[j][0]
	})
	return &prefixPicker{groups: groups, zipf: rand.NewZipf(rng, s, 1, uint64(len(groups)-1)), rng: rng}
}

func (p *prefixPicker) pick() int32 {
	g := p.groups[p.zipf.Uint64()]
	return g[p.rng.Intn(len(g))]
}

// genOps appends one phase's Poisson arrivals at its rate and fills in the
// op mix of the workload.
func genOps(in *inputs, w *workloadSpec, ph *phase, rng *rand.Rand, pick *prefixPicker) {
	ph.first = len(in.ops)
	span := ph.warmup + ph.measure
	meanGap := 1e9 / ph.rate
	t := 0.0
	for {
		t += rng.ExpFloat64() * meanGap
		if int64(t) >= span {
			break
		}
		o := op{due: int64(t)}
		switch w.mix {
		case mixIPGeo: // 50% GET / 50% PUT over preloaded keys
			o.key = pick.pick()
			if rng.Intn(2) == 0 {
				o.kind = opGet
			} else {
				o.kind = opPut
			}
		case mixDict:
			n, pre := int32(len(in.stored)), int32(in.preloaded)
			switch r := rng.Intn(100); {
			case r < 25:
				o.kind, o.key = opGet, rng.Int31n(n)
			case r < 90: // a third of the PUTs insert reserve words
				o.kind = opPut
				if rng.Intn(3) == 0 {
					o.key = pre + rng.Int31n(n-pre)
				} else {
					o.key = rng.Int31n(pre)
				}
			case r < 95:
				o.kind, o.key = opDel, rng.Int31n(n)
			default:
				o.kind, o.key = opScan, rng.Int31n(n)
			}
		}
		in.ops = append(in.ops, o)
	}
	ph.end = len(in.ops)
}

// expectedOps sizes the op slice so appends never reallocate.
func expectedOps(passes []*pass) int {
	n := 0.0
	for _, ps := range passes {
		for _, ph := range ps.phases {
			n += ph.rate * float64(ph.warmup+ph.measure) / 1e9
		}
	}
	return int(n + 6*math.Sqrt(n) + 16)
}

// buildInputs generates keys, arrival schedules and op streams for every
// pass from the seed.
func buildInputs(w *workloadSpec, seed int64, passes []*pass) (*inputs, error) {
	stored, token, err := genKeys(w, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{stored: stored, token: token, preloaded: w.preload}
	if in.preloaded <= 0 || in.preloaded > len(stored) {
		in.preloaded = len(stored)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pick *prefixPicker
	if w.mix == mixIPGeo {
		raw := stored
		if token != nil { // prefixes rank on the address, not its hex
			raw = make([][]byte, len(stored))
			for i, t := range token {
				raw[i], _ = hex.DecodeString(string(t[:2]))
			}
		}
		pick = newPrefixPicker(rng, raw, in.preloaded, w.zipf)
	}
	in.ops = make([]op, 0, expectedOps(passes))
	for _, ps := range passes {
		for _, ph := range ps.phases {
			genOps(in, w, ph, rng, pick)
		}
	}
	return in, nil
}

// keyBytes is the stored size of key i plus its 8-byte value: the user
// data one live key represents.
func (in *inputs) keyBytes(i int32) int { return len(in.stored[i]) + 8 }
