package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"kite"
)

// The traced run records spans around the benchmark's own calls into each
// layer: one per operation (DoAsync to callback), one per fence flush the
// shard layer sends (a child of the op that caused it) and one per probe
// op. Spans stay in memory and are written out when the run ends.

type spanKind uint8

// Op span kinds share kite.OpCode's numbering.
const (
	spanRead spanKind = iota
	spanWrite
	spanRelease
	spanAcquire
	spanFAA
	spanFence
	spanProbeFlush
	spanProbeRead
)

var spanNames = [...]string{"op.read", "op.write", "op.release", "op.acquire",
	"op.faa", "shard.fence", "probe.flush", "probe.read"}

type span struct {
	id, parent uint32
	kind       spanKind
	start, end int64
}

const (
	// relaxedSpanEvery samples one relaxed op in this many for a span;
	// every synchronising op gets one.
	relaxedSpanEvery = 16
	// auditKeyRate is the share of keys the traced run's audit samples.
	auditKeyRate = 1.0 / 64
	// maxSpansWritten caps the span file.
	maxSpansWritten = 1 << 18
)

type tracer struct {
	// trackFences attributes the shard layer's fence flushes to the
	// driven op that caused them (sharded deployments only).
	trackFences bool
	ids         atomic.Uint32

	mu      sync.Mutex
	parents map[int][]uint32 // per session: outstanding fencing ops, oldest first
	fences  []span
	timed   []*timedSession
}

func newTracer(w *workload) *tracer {
	return &tracer{trackFences: w.deploy == kindSharded, parents: map[int][]uint32{}}
}

func (t *tracer) newID() uint32 { return t.ids.Add(1) }

// pushParent registers a fencing op (release or FAA) of session sess at
// submission. The shard layer handles a session's fencing ops one at a
// time and in order, so the fences it sends belong to the oldest one
// still registered; the op's completion callback unregisters it before
// the shard layer moves on.
func (t *tracer) pushParent(sess int, id uint32) {
	t.mu.Lock()
	t.parents[sess] = append(t.parents[sess], id)
	t.mu.Unlock()
}

func (t *tracer) popParent(sess int) {
	t.mu.Lock()
	if q := t.parents[sess]; len(q) > 0 {
		t.parents[sess] = q[1:]
	}
	t.mu.Unlock()
}

func (t *tracer) parent(sess int) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q := t.parents[sess]; len(q) > 0 {
		return q[0]
	}
	return 0
}

func (t *tracer) takeFences() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.fences
	t.fences = nil
	return f
}

// wrapSub wraps a shard sub-session of driven session sess so that its
// OpFlush calls — the shard layer's cross-group fences — are recorded.
func (t *tracer) wrapSub(sess int, s kite.Session) kite.Session {
	return &subSession{Session: s, t: t, sess: sess}
}

type subSession struct {
	kite.Session
	t    *tracer
	sess int
}

func (s *subSession) DoAsync(op kite.Op, cb func(kite.Result)) {
	if op.Code != kite.OpFlush {
		s.Session.DoAsync(op, cb)
		return
	}
	sp := span{id: s.t.newID(), parent: s.t.parent(s.sess), kind: spanFence, start: now()}
	s.Session.DoAsync(op, func(r kite.Result) {
		sp.end = now()
		s.t.mu.Lock()
		s.t.fences = append(s.t.fences, sp)
		s.t.mu.Unlock()
		cb(r)
	})
}

// timeSubmit wraps a backend session to time the wall clock spent inside
// its DoAsync.
func (t *tracer) timeSubmit(s kite.Session) kite.Session {
	ts := &timedSession{Session: s}
	t.mu.Lock()
	t.timed = append(t.timed, ts)
	t.mu.Unlock()
	return ts
}

type timedSession struct {
	kite.Session
	ns, calls atomic.Int64
}

func (s *timedSession) DoAsync(op kite.Op, cb func(kite.Result)) {
	start := now()
	s.Session.DoAsync(op, cb)
	s.ns.Add(now() - start)
	s.calls.Add(1)
}

// submitNs is the mean wall time of one backend DoAsync call.
func (t *tracer) submitNs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns, calls int64
	for _, s := range t.timed {
		ns += s.ns.Load()
		calls += s.calls.Load()
	}
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// selfTimes returns the self time of every span of kind k ending inside
// [t0, t1): its duration minus the part its child spans cover.
func selfTimes(spans, children []span, k spanKind, t0, t1 int64) *hist {
	kids := map[uint32][]span{}
	for _, c := range children {
		if c.parent != 0 {
			kids[c.parent] = append(kids[c.parent], c)
		}
	}
	h := &hist{}
	for _, s := range spans {
		if s.kind != k || s.end < t0 || s.end >= t1 {
			continue
		}
		h.add(s.end - s.start - covered(s, kids[s.id]))
	}
	return h
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total, reach int64 = 0, parent.start
	for _, k := range kids {
		lo, hi := max(k.start, reach), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// writeSpans writes the run's spans in start order, one per line, to
// path: the first maxSpansWritten of them, children included.
func writeSpans(path string, groups ...[]span) error {
	var all []span
	for _, g := range groups {
		all = append(all, g...)
	}
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range all[:min(len(all), maxSpansWritten)] {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
