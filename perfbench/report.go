package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"kite"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// metrics; the self-tests check the two agree.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"p50_us", "us"}, {"p99_us", "us"},
	{"relaxed_p50_us", "us"}, {"relaxed_p99_us", "us"},
	{"sync_p50_us", "us"}, {"sync_p99_us", "us"},
	{"rmw_p50_us", "us"}, {"rmw_p99_us", "us"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

var perLayerDefs = []metricDef{
	{"kite.submit_ns", "ns"}, {"shard.submit_ns", "ns"}, {"client.submit_ns", "ns"},
	{"shard.fences_per_sync", "count/op"}, {"shard.fence_p50_us", "us"},
	{"client.read_rtt_p50_us", "us"},
	{"es.read_p50_us", "us"}, {"es.write_p50_us", "us"},
	{"es.flush_p50_us", "us"}, {"es.flush_p99_us", "us"},
	{"abd.release_p50_us", "us"}, {"abd.release_p99_us", "us"},
	{"abd.acquire_p50_us", "us"}, {"abd.acquire_p99_us", "us"},
	{"paxos.faa_p50_us", "us"}, {"paxos.faa_p99_us", "us"},
	{"core.local_acq_hit_ratio", "ratio"},
	{"core.slow_releases_per_kop", "1/kop"}, {"core.slow_reads_per_kop", "1/kop"},
	{"core.slow_writes_per_kop", "1/kop"}, {"core.epoch_bumps", "count"},
	{"core.node_ops_spread", "ratio"},
	{"transport.msgs_per_op", "msgs/op"}, {"transport.msgs_per_batch", "msgs/batch"},
	{"transport.mailbox_drops_per_kop", "1/kop"}, {"transport.fault_drops", "count"},
	{"transport.datagrams_per_syscall", "dgrams/call"}, {"transport.fallback_syscalls", "count"},
	{"server.ops_per_frame", "ops/frame"}, {"server.retransmit_ratio", "ratio"},
	{"server.held_ratio", "ratio"}, {"server.dropped_replies", "count"},
	{"kvs.view_ns", "ns"}, {"kvs.apply_ns", "ns"},
	{"proto.marshal_ns_per_msg", "ns/msg"}, {"proto.unmarshal_ns_per_msg", "ns/msg"},
	{"proto.bytes_per_msg", "B/msg"},
	{"trace.overhead_ratio", "ratio"},
}

type metricVal struct {
	value float64
	base  string // what the value was derived from, for the human report
}

// result is one invocation's report.
type result struct {
	correct           bool
	attempted, failed uint64
	defs              []metricDef
	vals              map[string]metricVal
}

func (r *result) set(name string, v float64, base string) {
	if r.vals == nil {
		r.vals = map[string]metricVal{}
	}
	r.vals[name] = metricVal{v, base}
}

func (r *result) printMeta(out io.Writer, cfg benchCfg) {
	w := cfg.w
	schedule := "none"
	if w.fault {
		schedule = fmt.Sprintf("replica 2 isolated (FaultInjector.IsolateNode) from %.0f%% to %.0f%% of the timed window, then healed",
			100*faultStart, 100*faultEnd)
	}
	meta := map[string]any{
		"workload": w.name, "seed": cfg.seed, "trace": cfg.trace,
		"seconds": cfg.measure.Seconds(), "warmup_s": cfg.warmup.Seconds(), "drain_bound_s": cfg.drain.Seconds(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "host_cpus": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "generators": cfg.generators, "sessions": numSessions, "window": window,
		"session_replicas": w.sessionNodes, "data_keys": dataKeys, "counters": numCounters,
		"mix":            fmt.Sprintf("writes %.0f%%, sync %.0f%%, faa %.0f%%", 100*w.mix.writeRatio, 100*w.mix.syncFrac, 100*w.mix.rmwFrac),
		"keys":           map[bool]string{true: fmt.Sprintf("zipfian s=%.1f", w.zipfS), false: "uniform"}[w.zipfS > 0],
		"fault_schedule": schedule, "injected_delay": "none",
	}
	b, _ := json.Marshal(meta) // cannot fail: plain values
	fmt.Fprintf(out, "# perfbench %s\n", b)
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

// judge folds one window's correctness verdicts into the result.
func (r *result) judge(out io.Writer, w *windowResult) {
	for _, v := range w.violations {
		r.correct = false
		fmt.Fprintln(out, "# VIOLATION:", v)
	}
	for _, e := range sortedKeys(w.errs) {
		fmt.Fprintf(out, "# errors: %d x %s\n", w.errs[e], e)
	}
	if a := w.audit; a != nil {
		fmt.Fprintf(out, "# audit: %d ops sampled, %d events judged, %d reads checked, %d dropped; %s\n",
			a.Stats.SampledOps, a.Stats.JudgedEvents, a.Stats.CheckedReads, a.Stats.DroppedEvents, a.Report)
		if !a.Report.OK() {
			r.correct = false
			fmt.Fprintln(out, "# VIOLATION: the audit found a consistency violation")
		}
		if a.Stats.CheckedReads == 0 {
			r.correct = false
			fmt.Fprintln(out, "# VIOLATION: the audit checked no reads (zero coverage)")
		}
	}
}

func sortedKeys(m map[string]uint64) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func us(ns float64) float64 { return ns / 1e3 }

// classes are the op classes the latency metrics report, by op code.
var classes = []struct {
	prefix string
	codes  []kite.OpCode
}{
	{"", []kite.OpCode{kite.OpRead, kite.OpWrite, kite.OpRelease, kite.OpAcquire, kite.OpFAA}},
	{"relaxed_", []kite.OpCode{kite.OpRead, kite.OpWrite}},
	{"sync_", []kite.OpCode{kite.OpRelease, kite.OpAcquire}},
	{"rmw_", []kite.OpCode{kite.OpFAA}},
}

// cleanShare is the share of a window's slices the end-to-end metrics are
// taken over, at the least.
const cleanShare = 0.1

// cleanSlices returns, in window order, the slices the end-to-end metrics
// are taken over: the tenth of the window's slices in which the
// hypervisor stole the least CPU time from the VM, together with every
// other slice that had no more steal than the last of them (on a quiet
// host that is most of the window), or every slice when the host does not
// report steal. On a shared host, steal moved throughput and p99 far more
// than anything in the program did (see README.md, "Steadiness"); the
// choice depends only on the host's counter, never on what the program
// did in the slice.
func (w *windowResult) cleanSlices() []int {
	if w.steal == nil {
		idx := make([]int, len(w.slices))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return leastStolen(w.steal, cleanShare)
}

// leastStolen returns, in order, the indexes of the share of steal's
// entries with the least steal (at least one), and of every other entry
// with no more steal than the last of them.
func leastStolen(steal []float64, share float64) []int {
	sorted := slices.Clone(steal)
	slices.Sort(sorted)
	cutoff := sorted[max(1, int(math.Ceil(float64(len(sorted))*share)))-1]
	var idx []int
	for i, st := range steal {
		if st <= cutoff {
			idx = append(idx, i)
		}
	}
	return idx
}

func (w *windowResult) sliceSecs() float64 { return w.measure.Seconds() / float64(len(w.slices)) }

// cleanThroughput is the ops/s completed in the slices idx.
func (w *windowResult) cleanThroughput(idx []int) float64 {
	var ok uint64
	for _, i := range idx {
		ok += w.slices[i].ok
	}
	return float64(ok) / (float64(len(idx)) * w.sliceSecs())
}

// stealShare is the share of the VM's CPU time stolen in the slices idx.
func (w *windowResult) stealShare(idx []int) float64 {
	var st float64
	for _, i := range idx {
		st += w.steal[i]
	}
	return st / (float64(len(idx)) * w.sliceSecs() * float64(runtime.NumCPU()))
}

// endToEnd derives the end-to-end metrics from the window's clean slices
// (cleanSlices); the whole-window value is given as the base.
func (r *result) endToEnd(out io.Writer, w *windowResult, setup float64) {
	r.defs = endToEndDefs
	idx := w.cleanSlices()
	sel := fmt.Sprintf("%d of %d slices", len(idx), len(w.slices))
	if w.steal != nil {
		all := make([]int, len(w.slices))
		for i := range all {
			all[i] = i
		}
		fmt.Fprintf(out, "# host: %.1f%% of the VM's CPU time stolen over the window, %.1f%% in the %s the metrics use\n",
			100*w.stealShare(all), 100*w.stealShare(idx), sel)
	}
	r.set("throughput_ops_s", w.cleanThroughput(idx), fmt.Sprintf("%s; whole window %s ops / %.0f s",
		sel, si(float64(w.ok)), w.measure.Seconds()))
	for _, c := range classes {
		var whole, clean hist
		for _, code := range c.codes {
			whole.merge(&w.byCode[code])
			for _, i := range idx {
				clean.merge(&w.slices[i].byCode[code])
			}
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50_us", 0.50}, {"p99_us", 0.99}} {
			r.set(c.prefix+q.name, us(clean.quantile(q.q)), fmt.Sprintf("%s samples in %s; whole window %.1f over %s",
				si(float64(clean.n)), sel, us(whole.quantile(q.q)), si(float64(whole.n))))
		}
	}
	okRatio, base := ratio(float64(w.attempted-w.failed), float64(w.attempted), "ok", "attempted")
	r.set("ok_ratio", okRatio, base)
	r.set("setup_s", setup, "median boot+prefill time of the less stolen half of the run's boots")
	r.set("rss_peak_mb", peakRSSMB(), "VmHWM")

	// The availability figures of the failover study. Every workload
	// measures them over the same interval; only failover injects a fault
	// there, so elsewhere they only show the host's noise.
	secs := w.measure.Seconds()
	before := float64(w.okBefore) / (faultStart * secs)
	during := float64(w.okFault) / ((faultEnd - faultStart) * secs)
	v, base := ratio(during, before, "ops/s in the fault interval", "ops/s before it")
	fmt.Fprintf(out, "# availability: outage_ms %.3f (longest interval in the fault interval with no op completing)\n",
		float64(w.outage)/float64(time.Millisecond))
	fmt.Fprintf(out, "# availability: fault_ops_ratio %.4f (%s)\n", v, base)
}

func (r *result) perLayer(cfg benchCfg, d *deployment, plain, tw *windowResult) error {
	r.defs = perLayerDefs
	w := cfg.w
	layer := w.submitLayer()
	for _, l := range []string{"kite", "shard", "client"} {
		v, base := 0.0, "not this workload's backend"
		if l == layer {
			v, base = tw.submitNs, "mean wall time inside "+l+" DoAsync"
		}
		r.set(l+".submit_ns", v, base)
	}
	t0, t1 := tw.t0, tw.t1
	// inWindow gathers the durations of the spans of one kind that ended
	// inside the timed window.
	inWindow := func(spans []span, kind spanKind) (h hist, n int) {
		for _, s := range spans {
			if s.kind == kind && s.end >= t0 && s.end < t1 {
				h.add(s.end - s.start)
				n++
			}
		}
		return h, n
	}
	fences, nf := inWindow(tw.fences, spanFence)
	_, nrel := inWindow(tw.spans, spanRelease)
	_, nfaa := inWindow(tw.spans, spanFAA)
	v, base := ratio(float64(nf), float64(nrel+nfaa), "fences", "releases+FAAs")
	r.set("shard.fences_per_sync", v, base)
	r.set("shard.fence_p50_us", us(fences.quantile(0.5)), fmt.Sprintf("%d fence flushes", nf))
	rtt, nrtt := inWindow(tw.spans, spanProbeRead)
	r.set("client.read_rtt_p50_us", us(rtt.quantile(0.5)), fmt.Sprintf("%d probe reads", nrtt))
	r.set("es.read_p50_us", us(tw.byCode[kite.OpRead].quantile(0.5)), "read op spans")
	r.set("es.write_p50_us", us(tw.byCode[kite.OpWrite].quantile(0.5)), "write op spans")
	flush, nflush := inWindow(tw.spans, spanProbeFlush)
	r.set("es.flush_p50_us", us(flush.quantile(0.5)), fmt.Sprintf("%d probe flushes", nflush))
	r.set("es.flush_p99_us", us(flush.quantile(0.99)), fmt.Sprintf("%d probe flushes", nflush))
	rel := selfTimes(tw.spans, tw.fences, spanRelease, t0, t1)
	r.set("abd.release_p50_us", us(rel.quantile(0.5)), "release span self time (minus fences)")
	r.set("abd.release_p99_us", us(rel.quantile(0.99)), "release span self time (minus fences)")
	r.set("abd.acquire_p50_us", us(tw.byCode[kite.OpAcquire].quantile(0.5)), "acquire op spans")
	r.set("abd.acquire_p99_us", us(tw.byCode[kite.OpAcquire].quantile(0.99)), "acquire op spans")
	faa := selfTimes(tw.spans, tw.fences, spanFAA, t0, t1)
	r.set("paxos.faa_p50_us", us(faa.quantile(0.5)), "FAA span self time (minus fences)")
	r.set("paxos.faa_p99_us", us(faa.quantile(0.99)), "FAA span self time (minus fences)")

	dc := tw.delta
	st := dc.total()
	var ops float64
	lo, hi := ^uint64(0), uint64(0)
	for _, c := range dc.completed {
		ops += float64(c)
	}
	for _, n := range d.nodes {
		lo, hi = min(lo, dc.completed[n]), max(hi, dc.completed[n])
	}
	kops := ops / 1000
	v, base = ratio(float64(st.LocalAcqHits), float64(st.LocalAcqHits+st.AcqFallbacks), "local hits", "acquires")
	r.set("core.local_acq_hit_ratio", v, base)
	v, base = ratio(float64(st.SlowReleases), kops, "slow releases", "kops")
	r.set("core.slow_releases_per_kop", v, base)
	v, base = ratio(float64(st.SlowReads), kops, "slow reads", "kops")
	r.set("core.slow_reads_per_kop", v, base)
	v, base = ratio(float64(st.SlowWrites), kops, "slow writes", "kops")
	r.set("core.slow_writes_per_kop", v, base)
	r.set("core.epoch_bumps", float64(st.EpochBumps), "NodeStats EpochBumps")
	v, base = ratio(float64(hi), float64(lo), "ops on busiest driven replica", "ops on idlest")
	r.set("core.node_ops_spread", v, base)

	tr := dc.tr
	trNote := ""
	if !dc.hasTransport {
		trNote = " (transport counters unreachable)"
	}
	v, base = ratio(float64(tr.sentMsgs), ops, "msgs", "ops")
	r.set("transport.msgs_per_op", v, base+trNote)
	msgsPerBatch, base := ratio(float64(tr.sentMsgs), float64(tr.sentBatches), "msgs", "batches")
	r.set("transport.msgs_per_batch", msgsPerBatch, base+trNote)
	v, base = ratio(float64(tr.droppedFull), kops, "mailbox drops", "kops")
	r.set("transport.mailbox_drops_per_kop", v, base+trNote)
	r.set("transport.fault_drops", float64(dc.faultDrops), "FaultInjector DroppedFault")
	v, base = ratio(float64(tr.batchedDatagrams), float64(tr.batchedSyscalls), "datagrams", "mmsg syscalls")
	r.set("transport.datagrams_per_syscall", v, base)
	r.set("transport.fallback_syscalls", float64(tr.fallbacks), "per-datagram syscalls")

	sv := dc.srv
	v, base = ratio(ops, float64(sv.requests), "ops", "frames")
	if !dc.hasServer {
		v, base = 0, "no session servers"
	}
	r.set("server.ops_per_frame", v, base)
	v, base = ratio(float64(sv.retransmits), float64(sv.requests), "retransmits", "frames")
	r.set("server.retransmit_ratio", v, base)
	v, base = ratio(float64(sv.held), float64(sv.requests), "held", "frames")
	r.set("server.held_ratio", v, base)
	r.set("server.dropped_replies", float64(sv.droppedReplies), "server.Stats DroppedReplies")

	ops2 := replayStream(w, cfg.seed)
	view, apply := replayKVS(ops2)
	r.set("kvs.view_ns", view, fmt.Sprintf("replay of %d generated ops", len(ops2)))
	r.set("kvs.apply_ns", apply, fmt.Sprintf("replay of %d generated ops", len(ops2)))
	mar, unm, bpm, err := replayProto(ops2, msgsPerBatch)
	if err != nil {
		return err
	}
	batchBase := fmt.Sprintf("ES write batches of %.0f msgs", max(1, msgsPerBatch))
	r.set("proto.marshal_ns_per_msg", mar, batchBase)
	r.set("proto.unmarshal_ns_per_msg", unm, batchBase)
	r.set("proto.bytes_per_msg", bpm, batchBase)

	thrPlain := plain.cleanThroughput(plain.cleanSlices())
	thrTraced := tw.cleanThroughput(tw.cleanSlices())
	v, base = ratio(thrTraced, thrPlain, "ops/s traced", "ops/s untraced")
	r.set("trace.overhead_ratio", v, base)
	return nil
}

// print writes every metric of the invocation, one per line, with its
// unit and base.
func (r *result) print(out io.Writer) {
	for _, d := range r.defs {
		m := r.vals[d.name]
		fmt.Fprintf(out, "%-34s %14.4f %-12s (%s)\n", d.name, m.value, d.unit, m.base)
	}
}

// jsonLine is the result line the benchmark contract asks for.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range r.defs {
		metrics[d.name] = mv{r.vals[d.name].value, d.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics}) // cannot fail: finite numbers
	return string(b)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// prefill writes every data key once, pipelined over one session per
// prefill replica and a partition of the key range — the way the internal
// latency study prefills — then lets full-acks and validations land.
func prefill(d *deployment) error {
	n := len(d.prefill)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i, s := range d.prefill {
		wg.Add(1)
		go func(i int, s kite.Session) {
			defer wg.Done()
			const depth = 32
			sem := make(chan struct{}, depth)
			var failed sync.Once
			val := make([]byte, valueLen)
			for k := uint64(i); k < dataKeys; k += uint64(n) {
				sem <- struct{}{}
				putValue(val, k, 1<<63|k)
				s.DoAsync(kite.WriteOp(k, val), func(r kite.Result) {
					if r.Err != nil {
						failed.Do(func() { errs <- fmt.Errorf("prefill write of key %d: %w", k, r.Err) })
					}
					<-sem
				})
			}
			for j := 0; j < depth; j++ {
				sem <- struct{}{}
			}
		}(i, s)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	time.Sleep(100 * time.Millisecond)
	return nil
}
