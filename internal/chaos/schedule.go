// Package chaos turns the repo's fault-injection knobs — link drops,
// delays, cuts and isolation (transport.FaultInjector), crash-restarts and
// membership reconfiguration — into seeded, reproducible nemesis
// schedules, and runs them against any Kite backend while a
// history-recording workload (internal/history) executes. The recorded
// history is checked offline by internal/verifier; cmd/kite-chaos is the
// CLI front end, and testcluster exposes a Target for the loopback-UDP
// deployment.
//
// A Schedule is a pure function of its Config (most importantly the seed):
// the same seed always yields bit-identical action timelines, so a failing
// run reproduces from its report alone. The generator guarantees:
//
//   - at least one action of every requested nemesis kind (round-robin
//     before random choice);
//   - every fault heals before the workload's settle window — the
//     timeline never ends in a broken state;
//   - lifecycle actions (stop-restart, add-remove) are exclusive: they
//     overlap nothing, so a crash never compounds with a partition into
//     quorum loss;
//   - link faults overlap at most MaxConcurrent deep, node isolation
//     never overlaps other link faults, and faulted links stay within the
//     boot membership — a connected majority always remains.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"kite/internal/llc"
)

// NemesisKind names one class of injected fault.
type NemesisKind string

const (
	// KindDropLink drops each message on one direction of a link with a
	// fixed probability.
	KindDropLink NemesisKind = "drop-link"
	// KindDelayLink holds one direction of a link's messages for a fixed
	// delay (reordering them against other links).
	KindDelayLink NemesisKind = "delay-link"
	// KindCutLink drops everything on one direction of a link.
	KindCutLink NemesisKind = "cut-link"
	// KindIsolateNode cuts every link touching one node, both directions.
	KindIsolateNode NemesisKind = "isolate-node"
	// KindStopRestart crash-stops a node, then restarts it and waits for
	// its catch-up sweep.
	KindStopRestart NemesisKind = "stop-restart"
	// KindAddRemove grows the membership by one replica, waits for it to
	// join, then removes it again.
	KindAddRemove NemesisKind = "add-remove"
	// KindCrashAll SIGKILLs every node at once, then restarts them all and
	// waits for every rejoin sweep. Memory-only deployments cannot survive
	// it (all replicas of every key are gone); it exists to certify
	// WAL-enabled deployments, which restart from their own disks, and is
	// therefore excluded from AllKinds — request it explicitly.
	KindCrashAll NemesisKind = "crash-all"
)

// AllKinds lists every nemesis kind a memory-only deployment can survive,
// in canonical order. KindCrashAll is deliberately absent: it requires a
// WAL-enabled target (see its doc) and must be requested explicitly.
func AllKinds() []NemesisKind {
	return []NemesisKind{KindDropLink, KindDelayLink, KindCutLink,
		KindIsolateNode, KindStopRestart, KindAddRemove}
}

// LocalReadsKinds is the nemesis mix of the `local-reads` schedule
// (cmd/kite-chaos -nemeses local-reads), aimed at the local-acquire fast
// path (DESIGN.md "Local reads"). Its hazard window is invalidate→validate:
// a write's install clears the key's valid bit and only the full-ack
// validate broadcast sets it again, so the mix is biased toward reordering
// and losing exactly those messages — delay-link appears twice (weighting
// the random rounds toward held-back validates and acks), isolate-node
// starves full-acks entirely, and stop-restart / add-remove exercise the
// boot-invalid and membership-refit edges of validation.
func LocalReadsKinds() []NemesisKind {
	return []NemesisKind{KindDelayLink, KindIsolateNode, KindStopRestart,
		KindAddRemove, KindDelayLink}
}

// WireBatchingKinds is the nemesis mix of the `wire-batching` schedule
// (cmd/kite-chaos -nemeses wire-batching), aimed at the batched-syscall
// transport's flush-on-drain path (DESIGN.md "Transport"). Its hazard
// window is the time a datagram spends staged on the send ring, not yet
// posted, while the flusher's previous syscall is in flight: delay-link
// appears twice (weighting the random rounds toward batches that land after
// later retransmissions, so duplicate suppression runs against whole
// batched frames), drop-link and cut-link lose multi-message batches
// wholesale and force retransmission through partially-filled rings, and
// stop-restart drains rings mid-flight and reprobes the sendmmsg/recvmmsg
// path on the restarted node's fresh socket. Pair it with Config.BurstSessions so high-fanout relaxed writes
// keep datagrams queued on the send rings while the mix runs.
func WireBatchingKinds() []NemesisKind {
	return []NemesisKind{KindDelayLink, KindDropLink, KindDelayLink,
		KindCutLink, KindStopRestart}
}

// OnlineAuditKinds is the nemesis mix of the `online-audit` schedule
// (cmd/kite-chaos -nemeses online-audit), which rides the standing
// internal/audit verifier on the workload sessions while the mix runs. The
// auditor's own hazard windows are stream backpressure and watermark
// timing, so the mix leans on latency and loss rather than membership
// churn: delay-link appears twice (completions arriving long after their
// invokes stretch the grace window and force deferrals), drop-link and
// isolate-node starve acquires into long retry loops, and stop-restart
// makes whole recorded sessions abort and re-lease mid-audit. A run fails
// if the live auditor reports a violation the offline verifier does not
// confirm on the full recorded history.
func OnlineAuditKinds() []NemesisKind {
	return []NemesisKind{KindDelayLink, KindDropLink, KindDelayLink,
		KindIsolateNode, KindStopRestart}
}

// lifecycle reports whether the kind occupies the exclusive lane.
func (k NemesisKind) lifecycle() bool {
	return k == KindStopRestart || k == KindAddRemove || k == KindCrashAll
}

// Action is one scheduled nemesis: inject at At, heal at Heal (offsets
// from the run start).
type Action struct {
	At   time.Duration `json:"at"`
	Heal time.Duration `json:"heal"`
	Kind NemesisKind   `json:"kind"`
	// From/To name the faulted link direction (link kinds).
	From uint8 `json:"from,omitempty"`
	To   uint8 `json:"to,omitempty"`
	// Node is the target replica (isolate-node, stop-restart) or the id
	// the membership grows to (add-remove).
	Node int `json:"node,omitempty"`
	// Prob is the drop probability (drop-link).
	Prob float64 `json:"prob,omitempty"`
	// Delay is the added latency (delay-link).
	Delay time.Duration `json:"delay,omitempty"`
}

func (a Action) String() string {
	switch a.Kind {
	case KindDropLink:
		return fmt.Sprintf("%v-%v %s %d->%d p=%.2f", a.At, a.Heal, a.Kind, a.From, a.To, a.Prob)
	case KindDelayLink:
		return fmt.Sprintf("%v-%v %s %d->%d +%v", a.At, a.Heal, a.Kind, a.From, a.To, a.Delay)
	case KindCutLink:
		return fmt.Sprintf("%v-%v %s %d->%d", a.At, a.Heal, a.Kind, a.From, a.To)
	case KindCrashAll:
		return fmt.Sprintf("%v-%v %s all nodes", a.At, a.Heal, a.Kind)
	default:
		return fmt.Sprintf("%v-%v %s node %d", a.At, a.Heal, a.Kind, a.Node)
	}
}

// Schedule is a generated nemesis timeline, sorted by At.
type Schedule struct {
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration"`
	Actions  []Action      `json:"actions"`
}

// Config parameterises Generate.
type Config struct {
	// Seed fully determines the schedule (and the workload's value
	// choices).
	Seed int64
	// Duration is the nemesis window; every fault heals inside it.
	Duration time.Duration
	// Nodes is the boot membership size (faults target ids < Nodes).
	Nodes int
	// Kinds restricts the nemesis mix; nil means AllKinds().
	Kinds []NemesisKind
	// MaxConcurrent bounds overlapping link faults (default 2).
	MaxConcurrent int
	// MaxNodes caps add-remove ids (default llc.MaxNodes).
	MaxNodes int
	// RejoinTimeout bounds the blocking waits lifecycle heals perform
	// (default 30s). Tests pinning expected failures shorten it so a
	// sweep that can never complete fails the run quickly.
	RejoinTimeout time.Duration
	// OnlineAudit rides an internal/audit sampling auditor on every
	// recorded workload session for the whole run. The run then fails if
	// the live auditor reports a violation the offline verifier does not
	// confirm, or if the auditor saw no traffic. Purely a runner knob —
	// the generated timeline does not depend on it.
	OnlineAudit bool
	// BurstSessions adds that many unrecorded sessions issuing high-fanout
	// relaxed-write batches (the wire-batching schedule's load shape: they
	// keep datagrams staged on the send rings behind in-flight syscalls,
	// so the nemeses hit full rings rather than idle ones). 0 disables
	// them. Purely a workload
	// knob — the generated timeline does not depend on it.
	BurstSessions int
}

func (c *Config) defaults() {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxNodes <= 0 || c.MaxNodes > llc.MaxNodes {
		c.MaxNodes = llc.MaxNodes
	}
	if c.RejoinTimeout <= 0 {
		c.RejoinTimeout = 30 * time.Second
	}
}

// Generate builds the deterministic schedule for cfg. It never touches
// wall clocks or global randomness: same Config in, same Schedule out.
func Generate(cfg Config) Schedule {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := Schedule{Seed: cfg.Seed, Duration: cfg.Duration}

	// All heals land before the settle margin so verification starts from
	// a healed cluster.
	end := cfg.Duration - cfg.Duration/6
	// Fault durations scale with the window, clamped to stay interesting
	// on short smokes and bounded on long soaks.
	base := cfg.Duration / 12
	clampDur := func(d time.Duration) time.Duration {
		const lo, hi = 80 * time.Millisecond, 1200 * time.Millisecond
		if d < lo {
			return lo
		}
		if d > hi {
			return hi
		}
		return d
	}
	gap := func() time.Duration {
		return 20*time.Millisecond + time.Duration(rng.Int63n(int64(130*time.Millisecond)))
	}

	cursor := gap()            // next candidate start
	var lastHeal time.Duration // latest heal scheduled so far (any lane)
	var linkHeals []time.Duration
	var isolateHeal time.Duration
	nextAddID := cfg.Nodes

	pickLink := func() (uint8, uint8) {
		from := uint8(rng.Intn(cfg.Nodes))
		to := uint8(rng.Intn(cfg.Nodes - 1))
		if to >= from {
			to++
		}
		return from, to
	}

	for i := 0; ; i++ {
		kind := cfg.Kinds[i%len(cfg.Kinds)] // round 1..k: one of each
		if i >= len(cfg.Kinds) {
			kind = cfg.Kinds[rng.Intn(len(cfg.Kinds))]
		}
		dur := clampDur(time.Duration(float64(base) * (0.5 + rng.Float64())))
		a := Action{Kind: kind}
		start := cursor + gap()
		switch {
		case kind.lifecycle():
			// Exclusive lane: start only after everything else healed.
			if start < lastHeal {
				start = lastHeal + gap()
			}
			if kind == KindAddRemove && nextAddID >= cfg.MaxNodes {
				// Id space exhausted (ids are never reused); crash a
				// replica instead so the slot still exercises lifecycle.
				kind, a.Kind = KindStopRestart, KindStopRestart
			}
			switch kind {
			case KindAddRemove:
				a.Node = nextAddID
				nextAddID++
				// Join sweeps need room: give lifecycle actions the
				// doubled duration.
				dur = clampDur(2 * dur)
			case KindCrashAll:
				// Targets every node; a.Node stays zero. The heal restarts
				// the whole cluster and waits for every sweep, so it gets
				// the doubled duration like the other lifecycle kinds.
				dur = clampDur(2 * dur)
			default:
				a.Node = rng.Intn(cfg.Nodes)
				dur = clampDur(2 * dur)
			}
			a.At, a.Heal = start, start+dur
			// Nothing may overlap a lifecycle action.
			cursor = a.Heal
		case kind == KindIsolateNode:
			// One isolation at a time, never concurrent with other link
			// faults (two simultaneous partitions could disconnect a
			// majority).
			for _, h := range linkHeals {
				if h > start {
					start = h
				}
			}
			if isolateHeal > start {
				start = isolateHeal
			}
			a.Node = rng.Intn(cfg.Nodes)
			a.At, a.Heal = start, start+dur
			isolateHeal = a.Heal
			cursor = start
		default: // drop / delay / cut
			// Bounded overlap; never concurrent with an isolation.
			if isolateHeal > start {
				start = isolateHeal
			}
			for countAfter(linkHeals, start) >= cfg.MaxConcurrent {
				start = earliestAfter(linkHeals, start) + time.Millisecond
			}
			a.From, a.To = pickLink()
			switch kind {
			case KindDropLink:
				a.Prob = 0.3 + 0.5*rng.Float64()
			case KindDelayLink:
				a.Delay = 5*time.Millisecond + time.Duration(rng.Int63n(int64(40*time.Millisecond)))
			}
			a.At, a.Heal = start, start+dur
			linkHeals = append(linkHeals, a.Heal)
			cursor = start
		}
		if a.Heal > end {
			if i < len(cfg.Kinds) {
				// The window is too short for one of each kind: squeeze
				// the mandatory round in anyway by truncating the fault.
				a.Heal = end
				if a.At >= a.Heal {
					break
				}
			} else {
				break
			}
		}
		if a.Heal > lastHeal {
			lastHeal = a.Heal
		}
		sched.Actions = append(sched.Actions, a)
	}
	sortActions(sched.Actions)
	return sched
}

func countAfter(heals []time.Duration, t time.Duration) int {
	n := 0
	for _, h := range heals {
		if h > t {
			n++
		}
	}
	return n
}

func earliestAfter(heals []time.Duration, t time.Duration) time.Duration {
	best := time.Duration(-1)
	for _, h := range heals {
		if h > t && (best < 0 || h < best) {
			best = h
		}
	}
	if best < 0 {
		return t
	}
	return best
}

func sortActions(as []Action) {
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].At < as[j-1].At; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
}
