package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"kite"
)

// mix is an operation mix in the paper's §8.1 terms (the same reading as
// the internal/bench package): writeRatio is the share of ops that write
// (FAAs included), syncFrac the share of the remaining reads and writes
// that synchronise (acquire / release), rmwFrac the share of all ops that
// are FAAs.
type mix struct {
	writeRatio, syncFrac, rmwFrac float64
}

// thresholds are the mix's cumulative probabilities, in pick order.
type thresholds struct{ faa, release, write, acquire float64 }

func (m mix) thresholds() thresholds {
	w := m.writeRatio - m.rmwFrac
	reads := 1 - m.writeRatio
	return thresholds{
		faa:     m.rmwFrac,
		release: m.rmwFrac + w*m.syncFrac,
		write:   m.rmwFrac + w,
		acquire: m.rmwFrac + w + reads*m.syncFrac,
	}
}

func (t thresholds) pick(r float64) kite.OpCode {
	switch {
	case r < t.faa:
		return kite.OpFAA
	case r < t.release:
		return kite.OpRelease
	case r < t.write:
		return kite.OpWrite
	case r < t.acquire:
		return kite.OpAcquire
	default:
		return kite.OpRead
	}
}

// deployKind names how a workload's deployment is built.
type deployKind int

const (
	kindInproc  deployKind = iota // kite.Cluster, InProc transport
	kindSharded                   // sharded.Cluster
	kindRemote                    // core nodes over loopback UDP + session servers + client
)

// workload is one named input set of the benchmark.
type workload struct {
	name   string
	why    string
	deploy deployKind
	groups int // replica groups (sharded only)
	// sessionNodes are the replicas that carry driven sessions.
	sessionNodes []int
	mix          mix
	zipfS        float64 // 0 = uniform keys
	// fault isolates replica 2 for the middle of the timed window.
	fault bool
}

const (
	numNodes    = 3
	numSessions = 16
	window      = 4
	dataKeys    = 1 << 16
	numCounters = 64
	// Key layout: data keys [0, dataKeys), FAA counters after them, then
	// one probe key per probe session. Writes and releases only touch data
	// keys, so a counter's value is exactly the sum of the FAAs on it.
	counterBase = dataKeys
	probeBase   = counterBase + numCounters
	totalKeys   = probeBase + 8
	valueLen    = 16
	// faultStart/faultEnd bound replica 2's isolation on failover, as
	// shares of the timed window. Every workload reports outage_ms and
	// fault_ops_ratio over the same interval; only failover injects there.
	faultStart = 0.3
	faultEnd   = 0.7
)

var workloads = []*workload{
	{
		name:         "relaxed",
		why:          "the paper's common case, mostly relaxed accesses: kvs, es, the core worker loop and InProc do most of the work",
		deploy:       kindInproc,
		sessionNodes: []int{0, 1, 2},
		mix:          mix{writeRatio: 0.20, syncFrac: 0.05, rmwFrac: 0.01},
	},
	{
		name:         "sync-skew",
		why:          "sharded in-process: kvs, es, core and InProc as on relaxed, with abd, paxos and the cross-shard fence doing most of the work; zipfian hot keys contend in Paxos",
		deploy:       kindSharded,
		groups:       2,
		sessionNodes: []int{0, 1, 2},
		mix:          mix{writeRatio: 0.50, syncFrac: 0.50, rmwFrac: 0.10},
		zipfS:        1.1,
	},
	{
		name:         "remote",
		why:          "the only workload where client, server, proto and the UDP batch path run; core is as on relaxed",
		deploy:       kindRemote,
		sessionNodes: []int{0, 1},
		mix:          mix{writeRatio: 0.30, syncFrac: 0.10, rmwFrac: 0.05},
	},
	{
		name:         "failover",
		why:          "replica 2 is cut mid-window: the only workload on the slow path (release timeout, DM-sets, epoch bumps); tests availability",
		deploy:       kindInproc,
		sessionNodes: []int{0, 1},
		mix:          mix{writeRatio: 0.05, syncFrac: 0.05, rmwFrac: 0.01},
		fault:        true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opGen generates one session's operation stream. Streams are a function
// of (seed, session) only, so the same seed gives the same inputs.
type opGen struct {
	rng      *rand.Rand
	th       thresholds
	dataZipf *rand.Zipf
	ctrZipf  *rand.Zipf
	perm     uint64 // odd multiplier scattering zipf ranks over the key space
	sess     uint64
	seq      uint64
}

func newOpGen(w *workload, seed int64, sess int) *opGen {
	g := &opGen{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(sess) + 1)),
		th:   w.mix.thresholds(),
		sess: uint64(sess),
	}
	if w.zipfS > 0 {
		g.dataZipf = rand.NewZipf(g.rng, w.zipfS, 1, dataKeys-1)
		g.ctrZipf = rand.NewZipf(g.rng, w.zipfS, 1, numCounters-1)
		// The scatter multiplier derives from the seed alone, so every
		// session agrees on which keys are hot.
		g.perm = uint64(rand.New(rand.NewSource(seed)).Int63())<<1 | 1
	}
	return g
}

// next fills op with the session's next operation. The value of a write
// or release embeds the key and a stamp unique across the run, so reads
// can check what they returned and the audit sees unique values per key.
func (g *opGen) next(op *kite.Op, val []byte) {
	code := g.th.pick(g.rng.Float64())
	*op = kite.Op{Code: code}
	switch code {
	case kite.OpFAA:
		op.Key = counterBase + g.counter()
		op.Delta = 1
	default:
		op.Key = g.dataKey()
	}
	if code == kite.OpWrite || code == kite.OpRelease {
		g.seq++
		putValue(val, op.Key, g.sess<<40|g.seq)
		op.Value = val
	}
}

func (g *opGen) dataKey() uint64 {
	if g.dataZipf == nil {
		return uint64(g.rng.Int63n(dataKeys))
	}
	return (g.dataZipf.Uint64() * g.perm) % dataKeys
}

func (g *opGen) counter() uint64 {
	if g.ctrZipf == nil {
		return uint64(g.rng.Int63n(numCounters))
	}
	return g.ctrZipf.Uint64()
}

// putValue writes the value layout: key (8 bytes) then stamp (8 bytes).
func putValue(val []byte, key, stamp uint64) {
	binary.LittleEndian.PutUint64(val[0:8], key)
	binary.LittleEndian.PutUint64(val[8:16], stamp)
}

// valueKey returns the key a value was written for, or false when the
// value does not have the benchmark's layout.
func valueKey(val []byte) (uint64, bool) {
	if len(val) != valueLen {
		return 0, false
	}
	return binary.LittleEndian.Uint64(val[0:8]), true
}
