package chaos

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kite"
	"kite/internal/audit"
	"kite/internal/history"
)

// The workload mirrors the repo's conformance shape so the verifier has
// teeth on every protocol class: producer/consumer pairs exercise the
// release/acquire contract over relaxed payload writes, FAA workers hammer
// one counter from two sessions, and a CAS worker advances a unique-value
// chain. All values are unique per key (the verifier's matching
// assumption).
//
// Chaos discipline: any error abandons the current round, re-leases the
// session at the same coordinates and starts a fresh round under a fresh
// recorded session — so every release's covered writes live in the
// release's own recorded session, which is exactly the granularity the RC
// check verifies at.
const (
	payloadBase = 1000 // + pair*16 + k
	payloadKeys = 4
	flagBase    = 9000 // + pair
	faaKey      = 8000
	casKey      = 8001

	// Burst keys live far above every verified key range: burst writes are
	// unrecorded load (never read back), so they must never collide with a
	// key the verifier reasons about.
	burstBase   = 12000 // + burst*burstFanout + i
	burstFanout = 24    // writes per DoBatch round

	opTimeout = 5 * time.Second
)

type workload struct {
	target Target
	log    *history.Log
	// aud, when non-nil, rides the online auditor's sampling recorder on
	// every recorded session (outermost, so it sees exactly the calls the
	// offline history sees).
	aud   *audit.Auditor
	pairs int

	// burstOps counts completed unrecorded burst writes — the evidence
	// that the burst load actually ran (it appears in the run report).
	burstOps atomic.Uint64

	stop atomic.Bool
	wg   sync.WaitGroup
}

// startWorkload launches the worker goroutines; call (*workload).halt to
// stop and join them. bursts adds that many unrecorded high-fanout
// relaxed-write sessions (see (*workload).burst).
func startWorkload(tg Target, log *history.Log, aud *audit.Auditor, pairs, bursts int) *workload {
	w := &workload{target: tg, log: log, aud: aud, pairs: pairs}
	slot := 0
	next := func() (int, int) {
		node, sess := slot%tg.Nodes(), slot/tg.Nodes()
		slot++
		return node, sess
	}
	for p := 0; p < pairs; p++ {
		p := p
		pn, ps := next()
		cn, cs := next()
		w.go_(func() { w.producer(p, pn, ps) })
		w.go_(func() { w.consumer(p, cn, cs) })
	}
	for i := 0; i < 2; i++ {
		n, s := next()
		w.go_(func() { w.faa(n, s) })
	}
	n, s := next()
	w.go_(func() { w.cas(n, s) })
	for i := 0; i < 2; i++ {
		n, s := next()
		w.go_(func() { w.scan(n, s) })
	}
	for b := 0; b < bursts; b++ {
		b := b
		n, s := next()
		w.go_(func() { w.burst(b, n, s) })
	}
	return w
}

func (w *workload) go_(fn func()) {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		fn()
	}()
}

func (w *workload) halt() {
	w.stop.Store(true)
	w.wg.Wait()
}

// lease opens (or re-opens) the recorded session at the coordinates,
// retrying while the node is down.
func (w *workload) lease(node, sess int) kite.Session {
	for !w.stop.Load() {
		inner, err := w.target.Session(node, sess)
		if err == nil {
			s := w.log.Wrap(inner)
			if w.aud != nil {
				s = w.aud.Wrap(s)
			}
			return s
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// release closes a session that hit an error (freeing its lease on remote
// backends — leases are a finite per-node resource) and leases afresh.
func (w *workload) release(s kite.Session, node, sess int) kite.Session {
	if s != nil {
		s.Close()
	}
	time.Sleep(50 * time.Millisecond)
	return w.lease(node, sess)
}

// leaseRaw opens an unrecorded session at the coordinates, retrying while
// the node is down. Burst sessions use it: their writes are pure load —
// never read back, never verified — so recording them would only bloat the
// verifier's input without adding evidence.
func (w *workload) leaseRaw(node, sess int) kite.Session {
	for !w.stop.Load() {
		s, err := w.target.Session(node, sess)
		if err == nil {
			return s
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil
}

// releaseRaw is release for unrecorded sessions.
func (w *workload) releaseRaw(s kite.Session, node, sess int) kite.Session {
	if s != nil {
		s.Close()
	}
	time.Sleep(50 * time.Millisecond)
	return w.leaseRaw(node, sess)
}

func (w *workload) do(s kite.Session, op kite.Op) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	_, err := s.Do(ctx, op)
	return err
}

func (w *workload) doRes(s kite.Session, op kite.Op) (kite.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return s.Do(ctx, op)
}

// producer p writes its payload keys then releases its flag, one round per
// iteration; round numbers never repeat, even across error retries.
func (w *workload) producer(p, node, sess int) {
	s := w.lease(node, sess)
	for r := 1; s != nil && !w.stop.Load(); r++ {
		ok := true
		for k := 0; k < payloadKeys; k++ {
			val := []byte(fmt.Sprintf("p%dr%dk%d", p, r, k))
			if err := w.do(s, kite.WriteOp(uint64(payloadBase+p*16+k), val)); err != nil {
				ok = false
				break
			}
		}
		if ok {
			flag := []byte(fmt.Sprintf("p%dr%d", p, r))
			if err := w.do(s, kite.ReleaseOp(uint64(flagBase+p), flag)); err != nil {
				ok = false
			}
		}
		if !ok {
			// Round abandoned: fresh session, fresh recorded thread.
			s = w.release(s, node, sess)
			continue
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// consumer p acquires p's flag and reads the payload keys; the verifier
// decides what those reads were allowed to return.
func (w *workload) consumer(p, node, sess int) {
	s := w.lease(node, sess)
	for s != nil && !w.stop.Load() {
		if _, err := w.doRes(s, kite.AcquireOp(uint64(flagBase+p))); err != nil {
			s = w.release(s, node, sess)
			continue
		}
		bad := false
		for k := 0; k < payloadKeys; k++ {
			if err := w.do(s, kite.ReadOp(uint64(payloadBase+p*16+k))); err != nil {
				bad = true
				break
			}
		}
		if bad {
			s = w.release(s, node, sess)
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scan hammers the local-acquire fast path (DESIGN.md "Local reads"):
// acquires of the relaxed-only payload keys are served off the local store
// whenever a key's valid bit survives the nemeses, and fall back to the ABD
// quorum read whenever it doesn't — exactly the invalidate→validate window
// the local-reads schedule attacks. Payload keys are never sync-written and
// their values never collide with flag values, so the verifier judges these
// acquires as plain reads of relaxed data.
func (w *workload) scan(node, sess int) {
	s := w.lease(node, sess)
	for i := 0; s != nil && !w.stop.Load(); i++ {
		key := uint64(payloadBase + (i%w.pairs)*16 + (i/w.pairs)%payloadKeys)
		if _, err := w.doRes(s, kite.AcquireOp(key)); err != nil {
			s = w.release(s, node, sess)
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// burst keeps the transport's send rings busy: every round issues one
// high-fanout DoBatch of relaxed writes to its private key range, so the
// inter-replica broadcast path always has multi-message batches in flight
// and datagrams staged on the send ring, not yet posted, behind the
// flusher's current syscall — which is exactly the state the wire-batching
// nemeses attack. The session is unrecorded (leaseRaw) and the keys are disjoint
// from every verified range, so the verifier's judgement rests solely on
// the recorded workers running alongside.
func (w *workload) burst(b, node, sess int) {
	s := w.leaseRaw(node, sess)
	ops := make([]kite.Op, burstFanout)
	for r := 1; s != nil && !w.stop.Load(); r++ {
		for i := range ops {
			val := []byte(fmt.Sprintf("b%dr%dk%d", b, r, i))
			ops[i] = kite.WriteOp(uint64(burstBase+b*burstFanout+i), val)
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, err := s.DoBatch(ctx, ops)
		cancel()
		if err != nil {
			s = w.releaseRaw(s, node, sess)
			continue
		}
		w.burstOps.Add(burstFanout)
		time.Sleep(2 * time.Millisecond)
	}
}

// faa increments the shared counter; contention between the two FAA
// workers is what gives the lost-update check its power.
func (w *workload) faa(node, sess int) {
	s := w.lease(node, sess)
	for s != nil && !w.stop.Load() {
		if err := w.do(s, kite.FAAOp(faaKey, 1)); err != nil {
			s = w.release(s, node, sess)
			continue
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cas advances a unique-value chain: each successful swap consumes the
// previous value exactly once. After an indeterminate failure the next
// attempt's comparand is stale on purpose — its benign failure re-reads
// the current value.
func (w *workload) cas(node, sess int) {
	s := w.lease(node, sess)
	var expected []byte
	for i := 0; s != nil && !w.stop.Load(); i++ {
		next := []byte(fmt.Sprintf("c%d", i))
		res, err := w.doRes(s, kite.CASOp(casKey, expected, next, false))
		switch {
		case err != nil:
			s = w.release(s, node, sess)
		case res.Swapped:
			expected = next
		default:
			expected = res.Value
		}
		time.Sleep(5 * time.Millisecond)
	}
}
