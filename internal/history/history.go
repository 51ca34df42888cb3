// Package history records complete operation histories of kite.Session
// workloads for offline consistency checking. A Log wraps any number of
// sessions (on any backend) in recording adapters that note every
// invocation and completion with monotonic timestamps; the snapshot is a
// flat, serialisable event list that internal/verifier checks for
// release-consistency and k-atomicity violations, and that kite-chaos
// writes next to its run report.
//
// The model is the standard invoke/complete history of the linearizability
// literature (Herlihy & Wing; the k-Atomicity-Verification problem in
// PAPERS.md): every operation is an interval [Invoke, Complete] in one
// session's program order, carrying its arguments and observed results. An
// operation that failed is classified by Outcome — "maybe" failures
// (timeouts, cancellations, node stops) may still have taken effect and
// stay in the history as indeterminate intervals; "never" failures
// (validation rejections) provably did not execute.
//
// Logs from different processes serialise to a compact JSON-lines form and
// Merge into one history; timestamps are monotonic offsets from a per-log
// wall-clock base, so merged cross-process histories are as accurate as the
// machines' clock agreement (exact for the single-machine harnesses).
package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kite"
)

// Outcome classifies how an operation ended.
type Outcome string

const (
	// OutcomeOK: the operation completed successfully; its results are
	// binding facts.
	OutcomeOK Outcome = "ok"
	// OutcomeMaybe: the operation failed in a way that may still have
	// taken effect (timeout, cancellation, node stop). Verifiers must
	// treat it as "possibly happened, sometime after Invoke".
	OutcomeMaybe Outcome = "maybe"
	// OutcomeNever: the operation was rejected before consuming a
	// session-order slot (validation errors); it provably has no effect.
	OutcomeNever Outcome = "never"
)

// Event is one recorded operation.
type Event struct {
	// Session is the log-assigned recording-session id. One recorded
	// session is one logical thread of control: Index orders its events.
	Session int `json:"s"`
	// Index is the event's position in its session's submission order.
	Index int `json:"i"`
	// Op is the kite operation code.
	Op kite.OpCode `json:"op"`
	Key uint64     `json:"k"`
	// Arg is the written value (write/release) or the CAS new value.
	Arg []byte `json:"arg,omitempty"`
	// Expected is the CAS comparand.
	Expected []byte `json:"exp,omitempty"`
	// Delta is the FAA addend.
	Delta uint64 `json:"d,omitempty"`
	// Out is the returned value (read/acquire: value read; FAA/CAS: the
	// previous value).
	Out []byte `json:"out,omitempty"`
	// Swapped reports CAS success.
	Swapped bool `json:"sw,omitempty"`
	// Batch groups events submitted through one DoBatch call (-1 for
	// individually submitted operations).
	Batch int `json:"b"`
	// Outcome classifies the completion; Err carries the error text for
	// non-ok outcomes.
	Outcome Outcome `json:"oc"`
	Err     string  `json:"err,omitempty"`
	// Invoke and Complete are nanosecond offsets from the log's wall
	// base (monotonic within a process).
	Invoke   int64 `json:"t0"`
	Complete int64 `json:"t1"`
}

// IsWrite reports whether the event (if it happened) installed Value() at
// its key.
func (e *Event) IsWrite() bool {
	switch e.Op {
	case kite.OpWrite, kite.OpRelease:
		return true
	case kite.OpCASWeak, kite.OpCASStrong:
		return e.Swapped
	case kite.OpFAA:
		return e.Outcome == OutcomeOK && e.Delta != 0
	}
	return false
}

// IsRead reports whether the event observed a value at its key.
func (e *Event) IsRead() bool {
	switch e.Op {
	case kite.OpRead, kite.OpAcquire:
		return true
	}
	return false
}

// IsSync reports whether the event is a synchronisation operation — one
// Kite executes through a linearizable protocol (ABD or per-key Paxos).
func (e *Event) IsSync() bool {
	switch e.Op {
	case kite.OpRelease, kite.OpAcquire, kite.OpFAA, kite.OpCASWeak, kite.OpCASStrong:
		return true
	}
	return false
}

// Value returns the value the event installed at its key, for write-class
// events (FAA: the incremented counter encoding).
func (e *Event) Value() []byte {
	switch e.Op {
	case kite.OpWrite, kite.OpRelease, kite.OpCASWeak, kite.OpCASStrong:
		return e.Arg
	case kite.OpFAA:
		return kite.EncodeUint64(kite.DecodeUint64(e.Out) + e.Delta)
	}
	return nil
}

// String renders the event compactly for counterexample windows.
func (e *Event) String() string {
	out := ""
	switch {
	case e.Outcome == OutcomeMaybe:
		out = " ?(" + e.Err + ")"
	case e.Outcome == OutcomeNever:
		out = " ∅(" + e.Err + ")"
	case e.IsRead() || e.Op == kite.OpFAA:
		out = fmt.Sprintf(" -> %q", e.Out)
	case e.Op == kite.OpCASWeak || e.Op == kite.OpCASStrong:
		out = fmt.Sprintf(" -> swapped=%v old=%q", e.Swapped, e.Out)
	}
	arg := ""
	if len(e.Arg) > 0 {
		arg = fmt.Sprintf(" %q", e.Arg)
	}
	return fmt.Sprintf("[s%d#%d t%dus-%dus] %s(%d)%s%s",
		e.Session, e.Index, e.Invoke/1000, e.Complete/1000, e.Op, e.Key, arg, out)
}

// Recorded is a snapshotted (or merged, or deserialised) history.
type Recorded struct {
	// BaseWallNS anchors the events' monotonic offsets to the wall clock
	// of the recording process.
	BaseWallNS int64 `json:"base_wall_ns"`
	// Events are sorted by (Session, Index).
	Events []Event `json:"events"`
}

// Log is a live recorder. Wrap sessions before using them; Snapshot after
// the workload quiesces.
type Log struct {
	base     time.Time
	baseWall int64

	mu       sync.Mutex
	sessions []*sessionLog
}

type sessionLog struct {
	id int

	mu     sync.Mutex
	events []Event
	nbatch int
}

// New starts an empty log. The moment of creation is the timestamp epoch.
func New() *Log {
	now := time.Now()
	return &Log{base: now, baseWall: now.UnixNano()}
}

func (l *Log) now() int64 { return int64(time.Since(l.base)) }

// Wrap returns a recording kite.Session around inner under a fresh
// session id. The wrapper carries inner's single-logical-thread contract.
func (l *Log) Wrap(inner kite.Session) kite.Session {
	l.mu.Lock()
	s := &sessionLog{id: len(l.sessions)}
	l.sessions = append(l.sessions, s)
	l.mu.Unlock()
	r := &recorder{inner: inner, log: l, sess: s}
	r.Ops = kite.Ops{Doer: r}
	return r
}

// Snapshot copies the recorded history. Events still in flight (invoked,
// never completed) are closed as OutcomeMaybe at snapshot time. Safe to
// call while sessions are live, but meant for after quiesce.
func (l *Log) Snapshot() *Recorded {
	l.mu.Lock()
	sessions := append([]*sessionLog(nil), l.sessions...)
	l.mu.Unlock()
	rec := &Recorded{BaseWallNS: l.baseWall}
	for _, s := range sessions {
		s.mu.Lock()
		// Read the clock under the session's lock: every event it holds was
		// stamped before it was appended, so none is closed before it was
		// invoked — even when a live session keeps invoking meanwhile.
		now := l.now()
		for _, e := range s.events {
			if e.Complete < 0 {
				e.Complete = now
				e.Outcome = OutcomeMaybe
				e.Err = "incomplete at snapshot"
			}
			rec.Events = append(rec.Events, e)
		}
		s.mu.Unlock()
	}
	sortEvents(rec.Events)
	return rec
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Session != evs[j].Session {
			return evs[i].Session < evs[j].Session
		}
		return evs[i].Index < evs[j].Index
	})
}

// Merge combines histories from several logs (typically: several
// processes) into one, renumbering sessions and re-anchoring timestamps to
// the earliest wall base.
func Merge(parts ...*Recorded) *Recorded {
	out := &Recorded{}
	if len(parts) == 0 {
		return out
	}
	out.BaseWallNS = parts[0].BaseWallNS
	for _, p := range parts[1:] {
		if p.BaseWallNS < out.BaseWallNS {
			out.BaseWallNS = p.BaseWallNS
		}
	}
	sessBase := 0
	for _, p := range parts {
		shift := p.BaseWallNS - out.BaseWallNS
		maxSess := -1
		for _, e := range p.Events {
			if e.Session > maxSess {
				maxSess = e.Session
			}
			e.Session += sessBase
			e.Invoke += shift
			e.Complete += shift
			out.Events = append(out.Events, e)
		}
		sessBase += maxSess + 1
	}
	sortEvents(out.Events)
	return out
}

// WriteJSON serialises the history as JSON lines: one header object, then
// one event per line.
func (r *Recorded) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := struct {
		BaseWallNS int64 `json:"base_wall_ns"`
	}{r.BaseWallNS}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range r.Events {
		if err := enc.Encode(&r.Events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSON deserialises a history written by WriteJSON.
func ReadJSON(rd io.Reader) (*Recorded, error) {
	dec := json.NewDecoder(rd)
	var hdr struct {
		BaseWallNS int64 `json:"base_wall_ns"`
	}
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("history: bad header: %w", err)
	}
	out := &Recorded{BaseWallNS: hdr.BaseWallNS}
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("history: bad event %d: %w", len(out.Events), err)
		}
		out.Events = append(out.Events, e)
	}
	sortEvents(out.Events)
	return out, nil
}
