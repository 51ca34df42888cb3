package main

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/server"
	"kite/internal/transport"
)

// counters is a snapshot of every counter the layers export: per-replica
// core.Stats and completed ops, the replica transport (summed over
// replicas and groups), the fault injector and the session servers.
type counters struct {
	node      []core.Stats
	completed []uint64

	hasTransport bool // false when the transport's counters are unreachable
	tr           trCounters
	faultDrops   uint64

	hasServer bool
	srv       srvCounters
}

type trCounters struct {
	sentBatches, sentMsgs, droppedFull           uint64
	batchedSyscalls, batchedDatagrams, fallbacks uint64
}

func (t *trCounters) add(s *transport.Stats) {
	t.sentBatches += s.SentBatches.Load()
	t.sentMsgs += s.SentMsgs.Load()
	t.droppedFull += s.DroppedFull.Load()
	t.batchedSyscalls += s.BatchedSyscalls.Load()
	t.batchedDatagrams += s.BatchedDatagrams.Load()
	t.fallbacks += s.FallbackSyscalls.Load()
}

type srvCounters struct {
	requests, retransmits, held, droppedReplies uint64
}

func (c *srvCounters) add(s *server.Stats) {
	c.requests += s.Requests.Load()
	c.retransmits += s.Retransmits.Load()
	c.held += s.Held.Load()
	c.droppedReplies += s.DroppedReplies.Load()
}

// sub returns the counter deltas from before to c.
func (c counters) sub(before counters) counters {
	d := c
	d.node = make([]core.Stats, len(c.node))
	d.completed = make([]uint64, len(c.completed))
	for i := range c.node {
		a, b := c.node[i], before.node[i]
		d.node[i] = core.Stats{
			SlowReads:    a.SlowReads - b.SlowReads,
			SlowWrites:   a.SlowWrites - b.SlowWrites,
			EpochBumps:   a.EpochBumps - b.EpochBumps,
			SlowReleases: a.SlowReleases - b.SlowReleases,
			LocalAcqHits: a.LocalAcqHits - b.LocalAcqHits,
			AcqFallbacks: a.AcqFallbacks - b.AcqFallbacks,
		}
		d.completed[i] = c.completed[i] - before.completed[i]
	}
	d.tr = trCounters{
		sentBatches:      c.tr.sentBatches - before.tr.sentBatches,
		sentMsgs:         c.tr.sentMsgs - before.tr.sentMsgs,
		droppedFull:      c.tr.droppedFull - before.tr.droppedFull,
		batchedSyscalls:  c.tr.batchedSyscalls - before.tr.batchedSyscalls,
		batchedDatagrams: c.tr.batchedDatagrams - before.tr.batchedDatagrams,
		fallbacks:        c.tr.fallbacks - before.tr.fallbacks,
	}
	d.faultDrops = c.faultDrops - before.faultDrops
	d.srv = srvCounters{
		requests:       c.srv.requests - before.srv.requests,
		retransmits:    c.srv.retransmits - before.srv.retransmits,
		held:           c.srv.held - before.srv.held,
		droppedReplies: c.srv.droppedReplies - before.srv.droppedReplies,
	}
	return d
}

// total sums the per-replica core counters.
func (c counters) total() core.Stats {
	var t core.Stats
	for _, s := range c.node {
		t.SlowReads += s.SlowReads
		t.SlowWrites += s.SlowWrites
		t.EpochBumps += s.EpochBumps
		t.SlowReleases += s.SlowReleases
		t.LocalAcqHits += s.LocalAcqHits
		t.AcqFallbacks += s.AcqFallbacks
	}
	return t
}

// ratio divides num by den (0 when den is 0) and renders the base the
// ratio was taken over, e.g. "4.6M msgs / 2.0M ops".
func ratio(num, den float64, numUnit, denUnit string) (float64, string) {
	base := fmt.Sprintf("%s %s / %s %s", si(num), numUnit, si(den), denUnit)
	if den == 0 {
		return 0, base
	}
	return num / den, base
}

// si renders a count with a metric suffix.
func si(x float64) string {
	switch {
	case x >= 1e9:
		return fmt.Sprintf("%.2fG", x/1e9)
	case x >= 1e6:
		return fmt.Sprintf("%.2fM", x/1e6)
	case x >= 1e4:
		return fmt.Sprintf("%.1fk", x/1e3)
	}
	return fmt.Sprintf("%.0f", x)
}
